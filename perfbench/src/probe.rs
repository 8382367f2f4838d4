//! A host-speed probe: a fixed piece of work owned by the benchmark.
//!
//! On a shared host the same code runs faster or slower from minute to
//! minute, as other tenants load the core's sibling thread, the shared
//! caches and the memory bus. Those phases outlast a whole benchmark run,
//! so a median over the run's reps cannot remove them. The probe runs
//! between slices of the measured work and takes the same kinds of steps
//! the workloads take, so a phase that slows them slows the probe too.
//! Half its time goes to memory-bound steps like the simulator's (an
//! event heap, hashed lookups, dependent loads over a few megabytes) and
//! half to compute-bound steps like the flight recorder's (formatting
//! and hashing event lines): on a shared host the blend followed the
//! workloads' run-to-run swings more closely than either half alone.
//! Dividing a measured time by the
//! probe's slowdown at that moment gives the time the work would take
//! on the reference host ([`REFERENCE_S`]).
//!
//! The probe calls no code of the program under test, so a change to
//! the program cannot move it, except through the caches the two share:
//! after a slice that touched less memory the probe finds more of its
//! table cached. The table is 4 MiB, against the 39 to 330 MiB the
//! workloads hold.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;

use crate::{cpu_seconds, proc_status_kib};

/// CPU seconds one [`Probe::run`] takes on the reference host, about
/// its median on one core of a quiet 2-vCPU KVM guest. Only the unit of
/// the scaled times depends on it, not their spread.
pub const REFERENCE_S: f64 = 0.0045;

/// Entries of the pointer-chasing table (4 MiB of `u32`).
const TABLE: usize = 1 << 20;
/// Keys of the hash map.
const KEYS: u64 = 16_384;
/// Events kept in the heap.
const PENDING: usize = 4_096;
/// Memory-bound steps per run.
const STEPS: usize = 10_000;
/// Event lines formatted per run.
const LINES: u64 = 6_000;

/// The probe's state, built once per benchmark run.
pub struct Probe {
    /// A single random cycle through every slot: `next[i]` is the slot
    /// after `i`.
    next: Vec<u32>,
    counts: HashMap<u64, u64>,
    heap: BinaryHeap<Reverse<u64>>,
    /// Reused line buffer, allocated once.
    line: String,
    rng: u64,
    at: u32,
    resident_kib: u64,
}

impl Probe {
    /// Builds the tables (a fixed layout, independent of any seed).
    pub fn new() -> Result<Self, String> {
        let rss_kib = proc_status_kib("VmRSS")?;
        let mut rng = 0x2545_f491_4f6c_dd1d;
        // Sattolo's shuffle: one cycle through all slots.
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        for i in (1..TABLE).rev() {
            let j = (xorshift(&mut rng) % i as u64) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0; TABLE];
        for w in 0..TABLE {
            next[order[w] as usize] = order[(w + 1) % TABLE];
        }
        let counts = (0..KEYS).map(|k| (k, 0)).collect();
        let heap = (0..PENDING as u64)
            .map(|i| Reverse(xorshift(&mut rng) % 1_000_000 + i))
            .collect();
        let resident_kib = proc_status_kib("VmRSS")?.saturating_sub(rss_kib);
        Ok(Probe {
            next,
            counts,
            heap,
            line: String::with_capacity(256),
            rng,
            at: 0,
            resident_kib,
        })
    }

    /// Resident memory the tables added when built, in KiB. They stay
    /// resident, so memory metrics subtract it.
    pub fn resident_kib(&self) -> u64 {
        self.resident_kib
    }

    /// Runs the fixed work once; returns its CPU seconds.
    pub fn run(&mut self) -> Result<f64, String> {
        let started = cpu_seconds()?;
        let mut at = self.at;
        for _ in 0..STEPS {
            // An event: pop the earliest, count a hashed key, chase a
            // pointer, schedule a later event.
            let Reverse(now) = self.heap.pop().expect("the heap is never empty");
            let r = xorshift(&mut self.rng);
            *self
                .counts
                .get_mut(&(r % KEYS))
                .expect("every key is present") += 1;
            at = self.next[at as usize];
            self.heap
                .push(Reverse(now + 1 + (r >> 40) % 1_000 + u64::from(at & 7)));
        }
        self.at = black_box(at);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seq in 0..LINES {
            let r = xorshift(&mut self.rng);
            self.line.clear();
            write!(
                self.line,
                "{{\"t\":{:.6},\"type\":\"decision\",\"object\":{},\"host\":{},\"seq\":{seq}}}",
                (r >> 11) as f64 * 1e-9,
                r % 10_000,
                (r >> 32) % 53,
            )
            .expect("writing to a String cannot fail");
            for b in self.line.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        black_box(h);
        since(started)
    }
}

fn since(start: f64) -> Result<f64, String> {
    Ok(cpu_seconds()? - start)
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}
