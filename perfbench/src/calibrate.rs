//! A fixed reference workload that uses no crate code, timed next to
//! every repetition to measure how fast the host runs at that moment.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// CPU seconds of one pass: build and zero a 16 MiB table (as the
/// simulator builds its memories), make dependent read-modify-writes
/// across it, fill a hash map, and free it all.
pub fn reference_pass() -> f64 {
    const WORDS: usize = 1 << 21;
    let started = crate::cpu_seconds();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let words: Vec<AtomicU64> = (0..WORDS).map(|_| AtomicU64::new(0)).collect();
    let mut at = 0usize;
    for _ in 0..300_000 {
        let w = words[at].load(Ordering::Relaxed) ^ next();
        words[at].store(w, Ordering::Relaxed);
        at = (w as usize) & (WORDS - 1);
    }
    let mut map = HashMap::new();
    for i in 0..100_000u64 {
        *map.entry(next() % (1 << 15)).or_insert(0u64) += i;
    }
    black_box((words, map));
    crate::cpu_seconds() - started
}
