//! Shared parsing helpers for the committed benchmark reports.
//!
//! Every scenario of the `flac-bench` driver emits the same hand-rolled
//! JSON shape (hermetic workspace — no serde): human-readable framing
//! with exactly one object per line inside the result arrays. That
//! makes line-wise key extraction exact, and all five `parse_report`
//! readers (cache, serve, store, sync, topo) share this module instead
//! of each carrying its own copy of the same string surgery.

/// Extract the raw value token of `"key": value` from a one-line JSON
/// object fragment (quotes stripped, `,`/`}` terminated).
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Read the report-level `"quick"` flag (every report carries one on
/// its own line).
///
/// # Errors
///
/// Returns a description when the field is absent.
pub fn parse_quick(json: &str) -> Result<bool, String> {
    json.lines()
        .find_map(|l| field(l, "quick").filter(|_| l.trim_start().starts_with("\"quick\"")))
        .map(|v| v == "true")
        .ok_or_else(|| "missing \"quick\" field".into())
}

/// Fail on the first key of `fields` that `json` does not contain.
///
/// # Errors
///
/// Names the missing field.
pub fn require_fields(json: &str, fields: &[&str]) -> Result<(), String> {
    for f in fields {
        if !json.contains(&format!("\"{f}\"")) {
            return Err(format!("report is missing the \"{f}\" field"));
        }
    }
    Ok(())
}

/// One result-array line, with typed field accessors that name the
/// offending key on failure.
#[derive(Debug, Clone, Copy)]
pub struct LineObject<'a> {
    line: &'a str,
}

impl<'a> LineObject<'a> {
    /// The raw token of `key`.
    ///
    /// # Errors
    ///
    /// Names the missing key and the line it was expected on.
    pub fn raw(&self, key: &str) -> Result<&'a str, String> {
        field(self.line, key).ok_or_else(|| format!("missing \"{key}\" in {}", self.line))
    }

    /// A string field.
    ///
    /// # Errors
    ///
    /// Propagates [`LineObject::raw`] failures.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        Ok(self.raw(key)?.to_string())
    }

    /// An unsigned integer field.
    ///
    /// # Errors
    ///
    /// Missing key or unparsable number.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.raw(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// An unsigned integer field as `usize`.
    ///
    /// # Errors
    ///
    /// Missing key or unparsable number.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.raw(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// A floating-point field.
    ///
    /// # Errors
    ///
    /// Missing key or unparsable number.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.raw(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// A boolean field.
    ///
    /// # Errors
    ///
    /// Propagates [`LineObject::raw`] failures.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        Ok(self.raw(key)? == "true")
    }
}

/// Iterate the one-per-line result objects identified by a `marker`
/// key (e.g. every line containing `"impl":`).
pub fn objects_with<'a>(
    json: &'a str,
    marker: &'a str,
) -> impl Iterator<Item = LineObject<'a>> + 'a {
    let pat = format!("\"{marker}\":");
    json.lines()
        .filter(move |l| l.contains(&pat))
        .map(|line| LineObject { line })
}

/// The single line containing `marker`, for one-off objects.
///
/// # Errors
///
/// Returns a description when no line carries the marker.
pub fn object_with<'a>(json: &'a str, marker: &str) -> Result<LineObject<'a>, String> {
    let pat = format!("\"{marker}\":");
    json.lines()
        .find(|l| l.contains(&pat))
        .map(|line| LineObject { line })
        .ok_or_else(|| format!("missing \"{marker}\" object"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "sample",
  "quick": false,
  "results": [
    {"impl": "a", "threads": 4, "ratio": 1.25, "ok": true},
    {"impl": "b", "threads": 8, "ratio": 0.5, "ok": false}
  ]
}"#;

    #[test]
    fn field_extracts_quoted_and_bare_tokens() {
        let line = r#"    {"impl": "a", "threads": 4, "ratio": 1.25, "ok": true},"#;
        assert_eq!(field(line, "impl"), Some("a"));
        assert_eq!(field(line, "threads"), Some("4"));
        assert_eq!(field(line, "ratio"), Some("1.25"));
        assert_eq!(field(line, "ok"), Some("true"));
        assert_eq!(field(line, "absent"), None);
    }

    #[test]
    fn typed_accessors_roundtrip_a_report() {
        assert!(!parse_quick(SAMPLE).unwrap());
        let objs: Vec<_> = objects_with(SAMPLE, "impl").collect();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0].str_field("impl").unwrap(), "a");
        assert_eq!(objs[0].u64_field("threads").unwrap(), 4);
        assert!((objs[0].f64_field("ratio").unwrap() - 1.25).abs() < 1e-9);
        assert!(objs[0].bool_field("ok").unwrap());
        assert_eq!(objs[1].usize_field("threads").unwrap(), 8);
        assert!(!objs[1].bool_field("ok").unwrap());
    }

    #[test]
    fn failures_name_the_key() {
        let obj = objects_with(SAMPLE, "impl").next().unwrap();
        let err = obj.u64_field("missing").unwrap_err();
        assert!(err.contains("missing \"missing\""), "{err}");
        let err = obj.u64_field("impl").unwrap_err();
        assert!(err.starts_with("impl:"), "{err}");
        assert!(parse_quick("{}").is_err());
        assert!(object_with(SAMPLE, "nope").is_err());
        assert!(object_with(SAMPLE, "bench").is_ok());
    }
}
