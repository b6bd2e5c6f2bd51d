//! The calibration kernel: a fixed piece of work in the benchmark's own
//! code, timed beside every host measurement to gauge how fast the host
//! runs at that moment.
//!
//! On a shared host the same run takes 10–30 % more or less CPU time from
//! one minute to the next as other machines load the shared caches. The
//! kernel slows down with it, and the program never runs its code, so a
//! change to the program cannot move it. Host metrics are reported in
//! *calibrated* CPU seconds: CPU seconds scaled to a host on which one
//! kernel pass takes [`REFERENCE_S`].
//!
//! A pass is three parts of about equal time, each sensitive to cache
//! pressure in its own way: sorting keys that fit the private caches, a
//! chain of dependent reads in a table that does not, and an LZ-style
//! match scan (hash, table lookup, byte compare) over a block of bytes.
//! Purely core-bound work (a multiply chain, independent multiply lanes)
//! was tried too; it hardly moved while the workloads slowed by a fifth,
//! so it would only dilute the signal.

use crate::clock;
use std::hint::black_box;

/// CPU seconds of one kernel pass on the reference host. It is about the
/// median pass on the 2-vCPU Xeon virtual machine the benchmark was
/// written on, so calibrated seconds read close to that machine's CPU
/// seconds.
pub const REFERENCE_S: f64 = 0.010;

/// Keys per sort, and sorts per pass.
const SORT_KEYS: usize = 24_000;
const SORTS: usize = 6;

/// Entries of the table the dependent reads update (8 MiB, beyond the
/// private caches).
const TABLE_WORDS: usize = 1 << 20;

/// Dependent read-modify-writes per pass.
const WALK_STEPS: usize = 26_000;

/// Bytes the match scan covers per pass, and its hash table's size.
const SCAN_BYTES: usize = 384 << 10;
const SCAN_TABLE: usize = 1 << 12;

/// The kernel's buffers, its pass counter and the timed passes so far.
pub struct Calibrator {
    keys: Vec<u64>,
    table: Vec<u64>,
    bytes: Vec<u8>,
    last_at: Vec<u32>,
    pass: u64,
    timed: Vec<f64>,
}

impl Calibrator {
    /// Allocates the kernel's buffers and makes one untimed pass, so the
    /// first timed pass does not pay for page faults.
    pub fn new() -> Calibrator {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        // Three bytes in four repeat a short cycle and one is random, so
        // the scan finds matches of varied length.
        let bytes = (0..SCAN_BYTES)
            .map(|i| {
                x = xorshift(x);
                if x.is_multiple_of(4) {
                    (x >> 8) as u8
                } else {
                    (i / 7 % 61) as u8
                }
            })
            .collect();
        let mut c = Calibrator {
            keys: Vec::with_capacity(SORT_KEYS),
            table: (0..TABLE_WORDS as u64).collect(),
            bytes,
            last_at: vec![0; SCAN_TABLE],
            pass: 0,
            timed: Vec::new(),
        };
        c.run();
        c
    }

    /// CPU seconds of one kernel pass, measured now.
    pub fn time(&mut self) -> f64 {
        let start = clock::cpu_secs();
        black_box(self.run());
        let secs = clock::cpu_secs() - start;
        self.timed.push(secs);
        secs
    }

    /// Median CPU seconds of `passes` kernel passes, measured now.
    pub fn time_median(&mut self, passes: usize) -> f64 {
        let each: Vec<f64> = (0..passes.max(1)).map(|_| self.time()).collect();
        crate::stats::median(&each)
    }

    /// The timed passes so far: how many, and their median CPU seconds.
    pub fn summary(&self) -> (usize, f64) {
        (self.timed.len(), crate::stats::median(&self.timed))
    }

    /// One pass: the same amount of work every time, on inputs that
    /// differ from pass to pass so none of it can be skipped.
    fn run(&mut self) -> u64 {
        self.pass += 1;
        let mut x = self.pass.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut acc = 0u64;
        for _ in 0..SORTS {
            self.keys.clear();
            self.keys.extend((0..SORT_KEYS).map(|_| {
                x = xorshift(x);
                x
            }));
            self.keys.sort_unstable();
            acc ^= self.keys[SORT_KEYS / 2];
        }
        let mask = TABLE_WORDS as u64 - 1;
        let mut at = acc & mask;
        for _ in 0..WALK_STEPS {
            let v = self.table[at as usize];
            self.table[at as usize] = v.wrapping_add(acc);
            acc = acc.rotate_left(7) ^ v;
            x = xorshift(x);
            at = (v ^ x) & mask;
        }
        acc.wrapping_add(self.scan())
    }

    /// LZ-style match scan: hash four bytes, look up where they were last
    /// seen, count the bytes that match there, skip half the match.
    fn scan(&mut self) -> u64 {
        let d = &self.bytes;
        self.last_at.fill(0);
        let mut matched = 0u64;
        let mut i = 0;
        while i + 4 <= d.len() {
            let quad = u32::from_le_bytes([d[i], d[i + 1], d[i + 2], d[i + 3]]);
            let slot = (quad.wrapping_mul(2_654_435_761) >> 20) as usize;
            let from = self.last_at[slot] as usize;
            self.last_at[slot] = i as u32;
            let mut len = 0;
            while from + len < i && i + len < d.len() && d[from + len] == d[i + len] && len < 32 {
                len += 1;
            }
            matched += len as u64;
            i += 1 + len / 2;
        }
        matched
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// `cpu_s` CPU seconds, taken while a kernel pass took `kernel_s`, in
/// calibrated seconds.
pub fn calibrated(cpu_s: f64, kernel_s: f64) -> f64 {
    cpu_s * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_kernel_pass() {
        assert_eq!(calibrated(2.0, REFERENCE_S), 2.0);
        assert!((calibrated(1.0, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kernel_passes_are_timed_and_counted() {
        let mut k = Calibrator::new();
        assert!(k.time() > 0.0);
        assert!(k.time_median(3) > 0.0);
        let (passes, median) = k.summary();
        assert_eq!(passes, 4);
        assert!(median > 0.0);
    }

    #[test]
    fn the_scan_finds_matches() {
        let mut k = Calibrator::new();
        let matched = k.scan();
        assert!(matched > 0 && matched < 32 * SCAN_BYTES as u64);
        assert_eq!(matched, k.scan());
    }
}
