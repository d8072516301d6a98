//! Plain-text table rendering for experiment reports, and the sample
//! percentile their latency columns share.

/// Render rows as an aligned monospace table with a header rule.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize]| -> String {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        s.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&line(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row, &widths));
        out.push('\n');
    }
    out
}

/// Format nanoseconds human-readably (µs below 1 ms, ms below 1 s, s above).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.3} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b} B")
    } else if b < 1024 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Exact percentile `p` (0–100, nearest rank) over a sorted sample;
/// 0 for an empty one.
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = render(
            &["op", "latency"],
            &[
                vec!["SET".into(), "12 us".into()],
                vec!["GETLONG".into(), "9 us".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("op"));
        assert!(lines[2].starts_with("SET"));
        assert!(lines[3].starts_with("GETLONG"));
    }

    #[test]
    fn ns_formatting_bands() {
        assert_eq!(fmt_ns(900), "900 ns");
        assert_eq!(fmt_ns(12_340), "12.34 us");
        assert_eq!(fmt_ns(5_500_000), "5.500 ms");
        assert_eq!(fmt_ns(21_067_000_000), "21.067 s");
    }

    #[test]
    fn byte_formatting_bands() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4.0 KiB");
        assert_eq!(fmt_bytes(64 << 20), "64.0 MiB");
        assert_eq!(fmt_bytes(4 << 30), "4.00 GiB");
    }
}
