//! The RaDaR simulator's benchmark.
//!
//! One command runs one seeded workload (see [`workloads`]) for a time
//! budget, checks its outputs, and prints end-to-end metrics from
//! untraced runs or per-layer metrics from a traced run (see [`run`]).
//! It drives only the simulator's public API: `Scenario::builder`,
//! `Simulation::{new, with_policies, attach_observer,
//! enable_loop_profile, run_until, finish}` and `RunReport`.

pub mod alloc;
pub mod digest;
pub mod layers;
pub mod probe;
pub mod run;
pub mod workloads;

/// Counts allocator calls for `allocs_per_request` and the per-layer
/// allocation metrics; delegates to the system allocator.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// CPU seconds this process has run, on all its threads.
///
/// Set-up and run times are measured with this clock rather than the
/// wall clock: on a shared virtual machine the wall clock also counts
/// the time the hypervisor gives this CPU to other guests (steal), which
/// varies from second to second and has nothing to do with the code
/// measured. The simulation runs on one thread, so on an unshared core
/// the two clocks agree.
pub fn cpu_seconds() -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which the standard
    // library already links on Linux; `ts` is a live, writable struct
    // with the layout of `struct timespec` on Linux (two `long`s).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed".into());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
pub fn proc_status_kib(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().strip_suffix("kB")?.trim().parse().ok()
        })
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}
