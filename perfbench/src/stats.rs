//! Latency quantiles and facts about the machine a result came from.

/// Samples per block of [`Blocks`].
pub const BLOCK: usize = 1000;

/// Latency quantiles that ride out short stalls of a shared machine.
///
/// Samples are cut into blocks of [`BLOCK`] in arrival order. Each block
/// yields its own nearest-rank p50 and p99, so every p99 is taken over
/// 1000 samples, and the reported quantile is the median of the blocks'
/// values. A stall that hits a few blocks moves those blocks, not their
/// median. Samples that do not fill a block count only when there is no
/// full block. Memory stays fixed per block, whatever the op count.
#[derive(Clone, Default)]
pub struct Blocks {
    pending: Vec<u64>,
    p50: Vec<u64>,
    p99: Vec<u64>,
    n: u64,
}

impl Blocks {
    pub fn record(&mut self, value: u64) {
        self.n += 1;
        self.pending.push(value);
        if self.pending.len() == BLOCK {
            self.p50.push(exact_quantile(&mut self.pending, 0.5));
            self.p99.push(exact_quantile(&mut self.pending, 0.99));
            self.pending.clear();
        }
    }

    pub fn merge(&mut self, other: &Blocks) {
        self.p50.extend(&other.p50);
        self.p99.extend(&other.p99);
        self.n += other.n - other.pending.len() as u64;
        for &v in &other.pending {
            self.record(v);
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn p50(&self) -> f64 {
        self.pick(&self.p50, 0.5)
    }

    pub fn p99(&self) -> f64 {
        self.pick(&self.p99, 0.99)
    }

    fn pick(&self, blocks: &[u64], q: f64) -> f64 {
        if blocks.is_empty() {
            return exact_quantile(&mut self.pending.clone(), q) as f64;
        }
        median(blocks.iter().map(|&v| v as f64).collect())
    }
}

/// Median, averaging the middle two of an even count (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Exact nearest-rank quantile of `values`, which it sorts.
pub fn exact_quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `nproc`, CPU model, kernel and compiler, for the provenance record.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: &'static str,
}

impl Machine {
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map(|(_, m)| m.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_quantiles_take_the_median_block() {
        let mut b = Blocks::default();
        assert_eq!(b.p99(), 0.0);
        for v in 1..=10u64 {
            b.record(v);
        }
        // No full block yet: the pending samples answer.
        assert_eq!((b.p50(), b.p99()), (5.0, 10.0));
        let mut slow = Blocks::default();
        for block in 0..3u64 {
            // The middle block is a stall: ten times slower.
            let scale = if block == 1 { 10 } else { 1 };
            for v in 1..=BLOCK as u64 {
                slow.record(v * scale + block);
            }
        }
        assert_eq!(slow.count(), 3 * BLOCK as u64);
        assert_eq!(slow.p50(), 502.0);
        assert_eq!(slow.p99(), 992.0);
        let mut merged = Blocks::default();
        merged.merge(&slow);
        merged.merge(&b);
        assert_eq!(merged.count(), 3 * BLOCK as u64 + 10);
        assert_eq!(merged.p99(), 992.0);
    }

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(exact_quantile(&mut v, 0.5), 50);
        assert_eq!(exact_quantile(&mut v, 0.99), 99);
    }
}
