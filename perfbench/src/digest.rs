//! The report digest: a fingerprint of a run's outputs.
//!
//! Two runs of the same inputs must agree on it whatever is watching
//! them, so it is compared between untraced, traced and observed runs,
//! and against the value recorded for the default seed.

use radar_sim::RunReport;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digest of total and failed requests, relocations, per-bin bandwidth
/// sums of every traffic class, and the final replica placement.
pub fn report_digest(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for v in [
        report.total_requests,
        report.failed_requests,
        report.geo_migrations,
        report.geo_replications,
        report.offload_migrations,
        report.offload_replications,
        report.drops,
        report.affinity_reductions,
        report.re_replications,
    ] {
        h.u64(v);
    }
    for series in [
        &report.client_bandwidth,
        &report.overhead_bandwidth,
        &report.update_bandwidth,
    ] {
        h.u64(series.len() as u64);
        for i in 0..series.len() {
            h.f64(series.bin_sum(i));
        }
    }
    h.u64(report.final_replicas.len() as u64);
    for replicas in &report.final_replicas {
        h.u64(replicas.len() as u64);
        for &(host, affinity) in replicas {
            h.u64(u64::from(host));
            h.u64(u64::from(affinity));
        }
    }
    h.0
}
