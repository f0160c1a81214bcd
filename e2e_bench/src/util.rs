//! Small shared helpers: the seeded generator, order statistics, the
//! `RunReport` digest, peak memory and JSON output.

use std::fmt::Write as _;
use std::time::Duration;

use wse_fabric::engine::RunReport;

/// SplitMix64: a tiny seeded generator, so every input and order is a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (inputs, order).
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over every field of a sequence of run reports: one number that
/// changes whenever any simulated statistic changes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn report(&mut self, report: &RunReport) {
        let RunReport {
            cycles,
            pe_finish,
            energy_hops,
            links_used,
            max_link_load,
            max_received,
            max_sent,
            stall_cycles,
            noop_cycles,
        } = report;
        for value in [
            *cycles,
            *energy_hops,
            *links_used,
            *max_link_load,
            *max_received,
            *max_sent,
            *stall_cycles,
            *noop_cycles,
            pe_finish.len() as u64,
        ] {
            self.word(value);
        }
        for finish in pe_finish {
            self.word(*finish);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    memory_mb("VmHWM:")
}

/// Resident memory of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    memory_mb("VmRSS:")
}

/// A memory field of `/proc/self/status` in MiB.
fn memory_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A named metric with its unit, in print order.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

/// A JSON number with every digit Rust prints for the value. JSON has no
/// infinity: the latency of a failed request prints as the largest double.
pub fn num(value: f64) -> String {
    format!("{:?}", if value.is_nan() { 0.0 } else { value.clamp(f64::MIN, f64::MAX) })
}
