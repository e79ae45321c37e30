//! Generator accounting: which ops were attempted, which committed and
//! which failed, and their latencies; nearest-rank percentiles.

use std::collections::HashMap;

/// Nearest-rank percentile of ascending `sorted` (`p` in `(0, 1]`): the
/// value at 1-based rank `ceil(p * n)`. Returns the value and the number
/// of samples that lie beyond it.
#[must_use]
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Median of unsorted values (nearest rank), `None` when empty.
#[must_use]
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[v.len().div_ceil(2) - 1])
}

/// A tail percentile worth printing: it has at least this many samples
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Why an op failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// No committed reply by the op's deadline (including ops still
    /// refused with `Busy` at that point).
    Deadline,
    /// A transfer that gave up after its abort retries.
    GaveUp,
}

#[derive(Clone, Copy, Debug)]
struct Open {
    start_ns: u64,
    busy: u32,
}

/// Per-phase op accounting. Every op is opened once with [`Accounting::open`]
/// and closed once, by a commit or a failure; any later report about the
/// same op (a duplicate or stale reply, a commit after the deadline) is
/// ignored, so each op counts exactly once.
#[derive(Debug, Default)]
pub struct Accounting {
    open: HashMap<u64, Open>,
    /// Ops opened.
    pub attempted: u64,
    /// Ops closed by a commit.
    pub committed: u64,
    /// Ops closed by a failure.
    pub failed: u64,
    /// `Busy` replies seen by ops of this phase.
    pub busy_replies: u64,
    /// Ops that failed while refused with `Busy`.
    pub failed_busy: u64,
    /// Ops that failed by missing their deadline.
    pub failed_deadline: u64,
    /// Window layout: start (ns), length (ns), number of windows.
    layout: (u64, u64, usize),
    /// Latencies (ns, saturated at `u32::MAX`) of the committed ops that
    /// completed within each window. Four bytes an op keep the benchmark's
    /// own memory small next to the cluster's.
    windows: Vec<Vec<u32>>,
}

impl Accounting {
    /// Accounting whose latencies are kept per window: `k` equal windows of
    /// `[start_ns, start_ns + len_ns)`, by completion time. Ops completing
    /// outside every window still count, but their latency is not kept.
    #[must_use]
    pub fn windowed(start_ns: u64, len_ns: u64, k: usize) -> Accounting {
        Accounting {
            layout: (start_ns, len_ns.max(1), k),
            windows: vec![Vec::new(); k],
            ..Accounting::default()
        }
    }

    /// Open op `op`, started (sent, or due in an open loop) at `start_ns`.
    pub fn open(&mut self, op: u64, start_ns: u64) {
        let fresh = self.open.insert(op, Open { start_ns, busy: 0 }).is_none();
        assert!(fresh, "op {op} opened twice");
        self.attempted += 1;
    }

    /// Record a `Busy` refusal of op `op`.
    pub fn busy(&mut self, op: u64) {
        if let Some(o) = self.open.get_mut(&op) {
            o.busy += 1;
            self.busy_replies += 1;
        }
    }

    /// Close `op` as committed at `end_ns`. Returns its latency, or `None`
    /// when the op is not open (already counted).
    pub fn commit(&mut self, op: u64, end_ns: u64) -> Option<u64> {
        let o = self.open.remove(&op)?;
        let lat = end_ns.saturating_sub(o.start_ns);
        self.committed += 1;
        let (start, len, k) = self.layout;
        if let Some(off) = end_ns.checked_sub(start).filter(|&o| o < len) {
            let w = (u128::from(off) * k as u128 / u128::from(len)) as usize;
            self.windows[w].push(u32::try_from(lat).unwrap_or(u32::MAX));
        }
        Some(lat)
    }

    /// Close `op` as failed. Returns `false` when it was not open.
    pub fn fail(&mut self, op: u64, why: Failure) -> bool {
        let Some(o) = self.open.remove(&op) else {
            return false;
        };
        self.failed += 1;
        if why == Failure::Deadline {
            self.failed_deadline += 1;
        }
        if o.busy > 0 {
            self.failed_busy += 1;
        }
        true
    }

    /// Ops opened but not yet closed.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.open.len()
    }

    /// The latencies kept in each window, ns, sorted ascending.
    #[must_use]
    pub fn sorted_windows(&self) -> Vec<Vec<u64>> {
        self.windows
            .iter()
            .map(|w| {
                let mut v: Vec<u64> = w.iter().map(|&l| u64::from(l)).collect();
                v.sort_unstable();
                v
            })
            .collect()
    }
}

/// A percentile as reported, in ms. A tail percentile (above the median)
/// is withheld unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> Result<f64, String> {
    let n = sorted_ns.len();
    match nearest_rank(sorted_ns, p) {
        None => Err("no samples (n=0)".into()),
        Some((_, beyond)) if p > 0.5 && beyond < MIN_BEYOND => {
            Err(format!("withheld: n={n}, only {beyond} samples beyond it"))
        }
        Some((v, _)) => Ok(v as f64 / 1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some((50, 50)));
        assert_eq!(nearest_rank(&v, 0.99), Some((99, 1)));
        assert_eq!(nearest_rank(&v, 1.0), Some((100, 0)));
        // ceil(0.5 * 3) = rank 2.
        assert_eq!(nearest_rank(&[10, 20, 30], 0.5), Some((20, 1)));
        assert_eq!(nearest_rank(&[7], 0.99), Some((7, 0)));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
    }

    #[test]
    fn duplicate_and_stale_replies_count_once() {
        let mut a = Accounting::windowed(0, 1_000, 1);
        a.open(1, 100);
        assert_eq!(a.commit(1, 300), Some(200));
        // A retransmission answered twice: the second reply is ignored.
        assert_eq!(a.commit(1, 400), None);
        // A reply that arrives after the op already failed is ignored too.
        a.open(2, 100);
        assert!(a.fail(2, Failure::Deadline));
        assert_eq!(a.commit(2, 500), None);
        assert!(!a.fail(2, Failure::Deadline));
        assert_eq!((a.attempted, a.committed, a.failed), (2, 1, 1));
        assert_eq!(a.sorted_windows(), vec![vec![200]]);
    }

    #[test]
    fn windows_split_by_completion_time() {
        let mut a = Accounting::windowed(100, 100, 2);
        for (op, end) in [(0, 110), (1, 105), (2, 150), (3, 199), (4, 200), (5, 90)] {
            a.open(op, 0);
            a.commit(op, end);
        }
        // [100, 200) in two windows; 200 and 90 fall outside but count.
        assert_eq!(a.sorted_windows(), vec![vec![105, 110], vec![150, 199]]);
        assert_eq!(a.committed, 6);
    }

    #[test]
    fn busy_refusals_and_deadline_misses_count_as_failed() {
        let mut a = Accounting::default();
        a.open(1, 0);
        a.busy(1);
        a.busy(1);
        assert!(a.fail(1, Failure::Deadline));
        // A busy refusal that later commits is a committed op.
        a.open(2, 0);
        a.busy(2);
        assert!(a.commit(2, 10).is_some());
        // A deadline miss without any refusal.
        a.open(3, 0);
        assert!(a.fail(3, Failure::Deadline));
        assert_eq!((a.attempted, a.committed, a.failed), (3, 1, 2));
        assert_eq!(a.failed_busy, 1);
        assert_eq!(a.busy_replies, 3);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn percentiles_print_with_sample_count_and_tail_needs_ten_beyond() {
        let v: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        assert_eq!(percentile_ms(&v, 0.5), Ok(500.0));
        // Rank 990 leaves exactly 10 samples beyond: printed.
        assert_eq!(percentile_ms(&v, 0.99), Ok(990.0));
        // 999 samples: rank 990 leaves 9 beyond: withheld.
        assert_eq!(
            percentile_ms(&v[..999], 0.99),
            Err("withheld: n=999, only 9 samples beyond it".to_string())
        );
        // The median needs no tail.
        assert!(percentile_ms(&v[..3], 0.5).is_ok());
        assert!(percentile_ms(&[], 0.5).is_err());
    }
}
