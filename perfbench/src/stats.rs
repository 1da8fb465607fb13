//! Exact-sample statistics and process resource readings.
//!
//! `zmail_obs` histograms have 12.5%-wide buckets, coarser than the
//! benchmark's regression bounds, so every end-to-end quantile here is
//! taken from the raw samples instead.

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples`
/// (sorted in place). `0.0` for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// `setup_s` from a run's set-up samples: their median, printed with the
/// spread it summarises.
pub fn setup_of_samples(samples: &[f64], out: &mut crate::report::Outcome) -> f64 {
    let mut s = samples.to_vec();
    let (lo, mid, hi) = (
        quantile(&mut s, 0.1),
        quantile(&mut s, 0.5),
        quantile(&mut s, 0.9),
    );
    out.note(format!(
        "setup: median {:.1} us over {} builds (p10 {:.1} us, p90 {:.1} us)",
        mid * 1e6,
        s.len(),
        lo * 1e6,
        hi * 1e6
    ));
    mid
}

/// A run's goodput from its rounds' goodputs: the 90th percentile.
///
/// Host CPU steal only ever slows a round down. Over ten `wire_small`
/// runs the median round's goodput spread 0.28 (interquartile range over
/// median) and the 90th-percentile round's, where the host interfered
/// least, 0.15.
pub fn goodput_of_rounds(rounds: &[f64]) -> f64 {
    quantile(&mut rounds.to_vec(), 0.9)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process CPU time so far, user and system, in seconds: every thread,
/// including exited ones (`/proc/self/stat` fields 14 and 15, in the
/// fixed 100 Hz `USER_HZ` unit the kernel reports them in).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name may contain spaces; fields resume after ')'.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Cpu {
            user_s: ticks(11) / 100.0,
            sys_s: ticks(12) / 100.0,
        }
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Host-wide CPU time counters from `/proc/stat`: the share of CPU time
/// the hypervisor stole from this machine shows how much of a run's
/// noise came from outside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        HostCpu {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Stolen share of host CPU time since `earlier`.
    pub fn steal_since(self, earlier: HostCpu) -> f64 {
        ratio(
            self.steal.saturating_sub(earlier.steal) as f64,
            self.total.saturating_sub(earlier.total) as f64,
        )
    }
}

/// Calls `f` three times; returns its (deterministic) result and the
/// median duration in seconds.
pub fn timed_median<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(3);
    let mut result = None;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        result = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (result.expect("called three times"), median(&times))
}

/// Rounds a run makes: `seconds` worth of rounds of nominal length
/// `round_s`, at least 3 (a traced run alternates untraced and traced
/// rounds and makes at least 2 of each). The count depends only on the
/// arguments, never on how fast the rounds go, so every build does the
/// same work in a run.
pub fn round_count(seconds: f64, round_s: f64, traced: bool) -> u64 {
    let min = if traced { 4 } else { 3 };
    ((seconds / round_s).round() as u64).max(min)
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let spin: u64 = (0..5_000_000u64).map(|i| i ^ (i >> 3)).sum();
        assert!(spin > 0);
        assert!(Cpu::now().total_s() >= 0.0);
    }
}
