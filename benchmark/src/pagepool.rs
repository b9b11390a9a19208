//! A pool of host-backed pages kept ahead of the product's memory growth.
//!
//! The product never frees what it learns (~600–800 B of RSS per record), so
//! a timed section takes 150–600 MB of fresh pages from the kernel. On a VM
//! whose host backs guest memory lazily and takes freed pages back within
//! seconds (virtio-balloon free-page reporting), the first touch of a page
//! the host has not backed costs whatever the host's memory pressure makes
//! it cost: touching 700 MB took between 0.4 s and 6.5 s on the host this
//! benchmark was defined on, and the system time of one `steady` run
//! between 0.4 s and 8 s. That is the sandbox, not the product — a
//! deployment owns its memory — and the core-bound kernel of `calib` cannot
//! see it.
//!
//! So a helper process touches [`POOL_BYTES`] of fresh memory and unmaps it
//! again whenever the measured process has grown by half of that (or a
//! second has passed: the host reclaims after two). The kernel hands freed
//! pages out again last-in first-out, from the per-CPU lists first, so the
//! product's next faults land on pages the helper just paid the host for.
//! The helper is a process of its own so the measured process's allocator
//! state, `VmRSS` and `VmHWM` stay what the product made them; it runs only
//! while the driver waits for it, between buckets, outside every clock; and
//! it inherits the driver's CPU pinning, so both use the same per-CPU lists.
//! In the first alternating comparison (8 pairs of `steady`, a slow phase of
//! the host) keeping the pool took the spread of raw `records_per_s` from
//! 33 % to 16 % and that of `bucket_p90_us` from 43 % to 17 %.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Bytes the helper touches per warm-up. Small enough to stay on the per-CPU
/// page lists (tens of MB here) and to fit the idle gap of the open loop
/// (~0.6 ms per MB when the host has the pages).
pub const POOL_BYTES: usize = 4 << 20;

/// Size of the helper's mapping, of which only the first [`POOL_BYTES`] are
/// touched. glibc serves a request from a fresh mapping, and unmaps it on
/// free, for certain only above the cap of its adaptive threshold (32 MiB);
/// below it, the second request of a size comes from a heap it never trims.
const MAPPING_BYTES: usize = 64 << 20;

/// The host takes reported pages back two seconds after they were freed.
const REFRESH: Duration = Duration::from_secs(1);

/// The helper's whole job: touch every page of [`POOL_BYTES`] fresh bytes
/// and give them back, once per line on stdin, and answer each with a line.
pub fn serve() {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
        let mut pool = vec![0u8; MAPPING_BYTES];
        for page in pool[..POOL_BYTES].chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&pool);
        drop(pool);
        if writeln!(stdout).and_then(|()| stdout.flush()).is_err() {
            break;
        }
    }
}

/// Resident set of this process in bytes, from `/proc/self/statm` (a fifth
/// of the cost of `/proc/self/status`); 0 if unreadable.
fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// The running helper.
pub struct PagePool {
    helper: Child,
    requests: ChildStdin,
    replies: BufReader<ChildStdout>,
    warmed_at_rss: u64,
    warmed_at: Instant,
    warm_ups: u64,
    spent: Duration,
}

impl PagePool {
    /// Starts the helper (this binary's `pool` subcommand). `None` when it
    /// cannot be started: the run is then exposed to the host, not wrong.
    pub fn start() -> Option<Self> {
        let mut helper = Command::new(std::env::current_exe().ok()?)
            .arg("pool")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .ok()?;
        let requests = helper.stdin.take()?;
        let replies = BufReader::new(helper.stdout.take()?);
        let mut pool = PagePool {
            helper,
            requests,
            replies,
            warmed_at_rss: 0,
            warmed_at: Instant::now(),
            warm_ups: 0,
            spent: Duration::ZERO,
        };
        pool.warm();
        Some(pool)
    }

    /// One warm-up, waited for.
    pub fn warm(&mut self) {
        let begun = Instant::now();
        let mut reply = String::new();
        // A helper that died leaves the run exposed, not wrong.
        let _ = writeln!(self.requests)
            .and_then(|()| self.requests.flush())
            .and_then(|()| self.replies.read_line(&mut reply));
        self.warmed_at_rss = resident_bytes();
        self.warmed_at = Instant::now();
        self.warm_ups += 1;
        self.spent += self.warmed_at.duration_since(begun);
    }

    /// Warms up if this process grew by half the pool since the last time,
    /// or the pool is about to go stale.
    pub fn top_up(&mut self) {
        if resident_bytes() >= self.warmed_at_rss + (POOL_BYTES / 2) as u64
            || self.warmed_at.elapsed() >= REFRESH
        {
            self.warm();
        }
    }

    /// Warm-ups so far.
    pub fn warm_ups(&self) -> u64 {
        self.warm_ups
    }

    /// Wall time spent waiting for the helper.
    pub fn seconds(&self) -> f64 {
        self.spent.as_secs_f64()
    }
}

impl Drop for PagePool {
    fn drop(&mut self) {
        // The helper holds nothing worth a graceful exit (and if this process
        // dies instead, the closed pipe ends its loop).
        let _ = self.helper.kill();
        let _ = self.helper.wait();
    }
}
