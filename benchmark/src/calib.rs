//! Host-speed calibration: a fixed kernel interleaved with the timed section.
//!
//! On a shared VM the same binary on the same input runs up to 40 % slower
//! for minutes at a time (neighbours on the sibling hyper-thread), which is
//! wider than any bound a benchmark may set. The kernel below is constant
//! work that no later PR can change (it lives in `benchmark/`), timed in
//! slices spread over the whole timed section. How much slower than on an
//! undisturbed host it ran tells how disturbed the host was during this run,
//! and the end-to-end time metrics are corrected by it. A change to the
//! product moves the product's time and not the kernel's, so it shows in
//! full; a slow phase of the host moves both and mostly cancels.
//!
//! The kernel is core-bound and L1-resident (format a key, hash it, bump a
//! slot of an 8 KiB table) and every slice starts with an untimed warm-up
//! pass, so what it costs depends little on what the product left in the
//! caches: a PR that changes the product's memory footprint barely moves
//! it (next to `steady` a slice is ~10 % slower than next to `fanin`, which
//! the 0.6 power below turns into ~6 %). Kernels that reach into L2, L3 or
//! DRAM were tried and rejected — next to `steady` they ran 30 % slower than
//! next to `fanin` on the same host, and their slice times were too noisy
//! (cv 40–70 %) to correct anything.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Mean slice time on this benchmark's defining host (2 vCPUs, Xeon @
/// 2.1 GHz) when nothing else disturbed it. Only a scale: it makes a
/// corrected value read like a wall-clock value on a quiet host.
pub const REFERENCE_SLICE_NS: f64 = 16_000.0;

/// How strongly the stack's time follows the kernel's: the stack is part
/// memory-bound and memory is not what varies on this host, so it slows by
/// less than the core-bound kernel does. Measured as the log-log slope of
/// each time metric against the kernel's slice time over 10 runs of every
/// workload: 0.41–0.74, correlation 0.83–0.99; with 0.6 the run-to-run
/// spread of those runs fell from 9–22 % to 2–7 %, with 1.0 it did not fall.
pub const HOST_SENSITIVITY: f64 = 0.6;

/// Slots of the table (8 KiB of `u64`: L1-resident).
const SLOTS: usize = 1 << 10;
/// Untimed keys at the start of a slice: code, table and branch history
/// are warm again whatever ran before.
const WARM_UP_STEPS: usize = 16;
/// Timed keys per slice.
const STEPS: usize = 160;

/// The calibration kernel and its accumulated cost.
pub struct Calibrator {
    table: Vec<u64>,
    key: String,
    serial: u64,
    ns: u64,
    slices: u64,
}

impl Calibrator {
    /// An idle calibrator.
    pub fn new() -> Self {
        Calibrator {
            table: vec![0; SLOTS],
            key: String::with_capacity(64),
            serial: 0,
            ns: 0,
            slices: 0,
        }
    }

    /// Formats, hashes and records `steps` keys.
    fn work(&mut self, steps: usize) {
        for _ in 0..steps {
            self.serial = self.serial.wrapping_add(0x9E37_79B9);
            let s = self.serial;
            self.key.clear();
            let _ = write!(
                self.key,
                "{}/{}/{:06}/{:03}",
                s & 3,
                (s >> 8) % 100_000,
                s % 1_000_000,
                s % 240
            );
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byte in self.key.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let slot = (hash as usize) & (SLOTS - 1);
            self.table[slot] = self.table[slot].wrapping_add(hash);
        }
        // Nothing reads the table, so keep the compiler from deleting the work.
        black_box(&mut self.table);
    }

    /// Runs one slice: the untimed warm-up, then the timed keys.
    pub fn slice(&mut self) {
        self.work(WARM_UP_STEPS);
        let timed = Instant::now();
        self.work(STEPS);
        self.ns += timed.elapsed().as_nanos() as u64;
        self.slices += 1;
    }

    /// Slices run so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Mean timed slice over the reference: how much slower than on the
    /// undisturbed defining host the kernel ran. 1 before the first slice.
    pub fn kernel_slowdown(&self) -> f64 {
        if self.slices == 0 {
            1.0
        } else {
            self.ns as f64 / self.slices as f64 / REFERENCE_SLICE_NS
        }
    }

    /// The factor the stack's wall-clock times are divided by:
    /// [`Calibrator::kernel_slowdown`] to the power [`HOST_SENSITIVITY`].
    pub fn host_slowdown(&self) -> f64 {
        self.kernel_slowdown().powf(HOST_SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_mean_slice_time_over_the_reference_damped() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.kernel_slowdown(), 1.0);
        assert_eq!(cal.host_slowdown(), 1.0);
        for _ in 0..5 {
            cal.slice();
        }
        assert_eq!(cal.slices(), 5);
        assert!(cal.ns > 0);
        let kernel = cal.ns as f64 / 5.0 / REFERENCE_SLICE_NS;
        assert!((cal.kernel_slowdown() - kernel).abs() < 1e-12);
        assert!((cal.host_slowdown() - kernel.powf(HOST_SENSITIVITY)).abs() < 1e-12);
        // A kernel twice as slow corrects the stack by 2^0.6, not by 2.
        cal.ns *= 2;
        let ratio = cal.host_slowdown() / kernel.powf(HOST_SENSITIVITY);
        assert!((ratio - 2f64.powf(HOST_SENSITIVITY)).abs() < 1e-9);
    }

    #[test]
    fn the_kernel_does_the_same_work_every_slice() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        for _ in 0..3 {
            a.slice();
            b.slice();
        }
        assert_eq!(a.table, b.table);
        assert_eq!(a.serial, b.serial);
        assert!(a.table.iter().any(|slot| *slot != 0));
    }
}
