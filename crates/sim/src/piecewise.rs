//! Piecewise-constant functions of simulated time.
//!
//! Harvest-power profiles are represented as piecewise-constant functions
//! so that every energy integral `∫ P(t) dt` and every linear crossing
//! time can be evaluated in closed form — the whole simulation stack stays
//! exact and deterministic.
//!
//! # Cost model
//!
//! Construction precomputes a cumulative-integral table at the
//! breakpoints, so [`PiecewiseConstant::integrate`] is a difference of
//! two closed-form antiderivative evaluations (`F(t2) − F(t1)`), each one
//! binary search — `O(log n)` in the segment count, independent of how
//! many segments the window spans. Extension tails are folded in closed
//! form: a full [`Extension::Cycle`] period integrates to a constant, so
//! cyclic integrals never unroll periods.
//!
//! Segment lookup is `O(1)` on a uniform grid (equally spaced
//! breakpoints, as [`PiecewiseConstant::from_samples`] builds every
//! sampled harvest profile): the constructor records the common
//! spacing, and the segment holding an in-domain instant is one integer
//! division away. On non-uniform profiles (hand-built breakpoints,
//! fault-injected blackouts) callers that sweep time monotonically
//! (simulators, iterators) can hold a [`Cursor`]: it remembers the last
//! segment touched and re-anchors with a short forward gallop, making
//! `value_at` / `integrate` / breakpoint queries amortized `O(1)` while
//! staying `O(log n)` worst case for arbitrary access. Either way
//! [`PiecewiseConstant::segments_between`] resolves one segment per
//! window and carries the index forward from there.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime, TICKS_PER_UNIT};

/// How a [`PiecewiseConstant`] behaves outside the interval covered by its
/// breakpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Extension {
    /// Hold the first value before the domain and the last value after it.
    #[default]
    Hold,
    /// The function is zero outside its domain.
    Zero,
    /// The profile repeats with its domain length as period.
    ///
    /// The domain must have positive length for this to be meaningful;
    /// construction enforces it.
    Cycle,
}

/// Error constructing a [`PiecewiseConstant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PiecewiseError {
    /// The breakpoint list was empty or had fewer entries than values
    /// require (`n + 1` breakpoints for `n` values).
    LengthMismatch {
        /// Number of breakpoints supplied.
        breakpoints: usize,
        /// Number of segment values supplied.
        values: usize,
    },
    /// Breakpoints were not strictly increasing.
    NotIncreasing {
        /// Index of the first offending breakpoint.
        index: usize,
    },
    /// A segment value was NaN or infinite.
    NonFiniteValue {
        /// Index of the offending value.
        index: usize,
    },
    /// [`Extension::Cycle`] requires a domain of positive length.
    EmptyCycle,
}

impl fmt::Display for PiecewiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PiecewiseError::LengthMismatch {
                breakpoints,
                values,
            } => write!(
                f,
                "piecewise function needs exactly one more breakpoint than values \
                 (got {breakpoints} breakpoints for {values} values)"
            ),
            PiecewiseError::NotIncreasing { index } => {
                write!(
                    f,
                    "breakpoints must be strictly increasing (violated at index {index})"
                )
            }
            PiecewiseError::NonFiniteValue { index } => {
                write!(f, "segment value at index {index} is not finite")
            }
            PiecewiseError::EmptyCycle => {
                write!(f, "cyclic extension requires a domain of positive length")
            }
        }
    }
}

impl std::error::Error for PiecewiseError {}

/// A piecewise-constant function `f: SimTime → f64`.
///
/// The function takes value `values[i]` on the half-open interval
/// `[breakpoints[i], breakpoints[i+1])`; behaviour outside
/// `[breakpoints[0], breakpoints[n])` is governed by the [`Extension`].
///
/// # Examples
///
/// ```
/// use harvest_sim::piecewise::{Extension, PiecewiseConstant};
/// use harvest_sim::time::SimTime;
///
/// // 2.0 on [0,10), 0.5 on [10,20), held constant outside.
/// let f = PiecewiseConstant::new(
///     vec![SimTime::ZERO, SimTime::from_whole_units(10), SimTime::from_whole_units(20)],
///     vec![2.0, 0.5],
///     Extension::Hold,
/// )?;
/// assert_eq!(f.value_at(SimTime::from_whole_units(3)), 2.0);
/// assert_eq!(f.value_at(SimTime::from_whole_units(10)), 0.5);
/// // ∫ over [5,15) = 5·2.0 + 5·0.5
/// let e = f.integrate(SimTime::from_whole_units(5), SimTime::from_whole_units(15));
/// assert!((e - 12.5).abs() < 1e-12);
/// # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PiecewiseConstant {
    breakpoints: Vec<SimTime>,
    values: Vec<f64>,
    extension: Extension,
    /// `prefix[i] = ∫ f over [breakpoints[0], breakpoints[i])`; one entry
    /// per breakpoint, rebuilt on construction and deserialization.
    prefix: Vec<f64>,
    vmin: f64,
    vmax: f64,
    /// Common breakpoint spacing in ticks when the grid is uniform, else
    /// 0. Detected once at construction; a non-zero spacing turns
    /// [`Self::locate`] into one division.
    uniform_dt: i64,
    /// `1.0 / uniform_dt` (0 on non-uniform profiles), for the
    /// strength-reduced division in [`Self::grid_index`].
    inv_dt: f64,
}

/// Equality is over the semantic fields only; the prefix table is a
/// deterministic function of them.
impl PartialEq for PiecewiseConstant {
    fn eq(&self, other: &Self) -> bool {
        self.breakpoints == other.breakpoints
            && self.values == other.values
            && self.extension == other.extension
    }
}

impl Serialize for PiecewiseConstant {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("breakpoints".to_string(), self.breakpoints.to_value()),
            ("values".to_string(), self.values.to_value()),
            ("extension".to_string(), self.extension.to_value()),
        ])
    }
}

impl Deserialize for PiecewiseConstant {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let breakpoints = serde::de_field(v, "breakpoints")?;
        let values = serde::de_field(v, "values")?;
        let extension = serde::de_field(v, "extension")?;
        PiecewiseConstant::new(breakpoints, values, extension)
            .map_err(|e| serde::DeError::msg(format!("invalid piecewise function: {e}")))
    }
}

/// One maximal constant stretch of a [`PiecewiseConstant`] restricted to a
/// query window, as yielded by [`PiecewiseConstant::segments_between`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// Function value over `[start, end)`.
    pub value: f64,
}

impl Segment {
    /// Length of the segment.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Integral of the function over this segment.
    #[inline]
    pub fn integral(&self) -> f64 {
        self.value * self.duration().as_units()
    }
}

/// Lookup state for monotone time access.
///
/// A `Cursor` remembers the segment (and, under [`Extension::Cycle`], the
/// period image) of the last query it served. When the next query lands
/// in the same or a nearby later segment — the overwhelmingly common case
/// for simulators that sweep time forward — the `*_with` methods re-anchor
/// with a short forward gallop instead of a fresh binary search, making
/// `value_at` / `integrate` / breakpoint lookups amortized `O(1)`.
/// Queries that jump backwards or far ahead simply fall back to the
/// `O(log n)` search, so a cursor is never *required* to be monotone —
/// it is only fastest that way.
///
/// Cursors are plain data: cheap to copy, valid for the lifetime of the
/// profile they were created against, and independent of each other.
/// Using a cursor against a *different* profile is memory-safe but may
/// cost an extra fallback search; create one cursor per profile.
///
/// # Examples
///
/// ```
/// use harvest_sim::piecewise::PiecewiseConstant;
/// use harvest_sim::time::SimTime;
///
/// let f = PiecewiseConstant::constant(2.0);
/// let mut cur = f.cursor();
/// let mut total = 0.0;
/// for t in 0..100 {
///     let (a, b) = (SimTime::from_whole_units(t), SimTime::from_whole_units(t + 1));
///     total += f.integrate_with(&mut cur, a, b);
/// }
/// assert!((total - 200.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    /// Last segment index served.
    idx: usize,
    /// Period image the index belongs to (always 0 unless `Cycle`).
    period: i64,
    /// Whether the hint has been populated yet.
    init: bool,
    /// Lookup and crossing-solver observability counters.
    stats: CursorStats,
}

impl Cursor {
    /// Accumulated lookup/solver counters; see [`CursorStats`].
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

/// Observability counters accumulated by a [`Cursor`] as it serves
/// lookups and crossing queries. All counters wrap on overflow (they
/// are diagnostics, not accounting).
///
/// The lookup counters partition [`locates`](Self::locates): a call
/// either hits the hinted segment exactly, gallops forward (adding the
/// number of segments skipped to `gallop_segments`), jumps backwards,
/// or runs without a usable hint. On a uniform grid every lookup is
/// one division, but it is classified against the hint the same way.
/// Segment walks count at most one lookup per window: later segments
/// carry the index forward and are not lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Hinted segment lookups served.
    pub locates: u32,
    /// Lookups answered by the hinted segment itself (the O(1) path).
    pub hint_hits: u32,
    /// Total segments advanced past the hint by the gallop search.
    pub gallop_segments: u32,
    /// Lookups that galloped forward at least one segment.
    pub gallops: u32,
    /// Lookups that jumped backwards (hint discarded).
    pub backward_jumps: u32,
    /// Lookups with no usable hint (fresh cursor or period change).
    pub fresh_searches: u32,
    /// Crossing queries answered by the O(1) rate-bound reject.
    pub cross_reject: u32,
    /// Crossing queries answered by monotone tick bisection.
    pub cross_bisect: u32,
    /// Crossing queries answered by the clamped segment scan.
    pub cross_scan: u32,
    /// Crossing queries answered by the cyclic period-skip scan.
    pub cross_cyclic: u32,
}

impl CursorStats {
    /// Sums another cursor's counters into this one (wrapping).
    pub fn merge(&mut self, other: &CursorStats) {
        self.locates = self.locates.wrapping_add(other.locates);
        self.hint_hits = self.hint_hits.wrapping_add(other.hint_hits);
        self.gallop_segments = self.gallop_segments.wrapping_add(other.gallop_segments);
        self.gallops = self.gallops.wrapping_add(other.gallops);
        self.backward_jumps = self.backward_jumps.wrapping_add(other.backward_jumps);
        self.fresh_searches = self.fresh_searches.wrapping_add(other.fresh_searches);
        self.cross_reject = self.cross_reject.wrapping_add(other.cross_reject);
        self.cross_bisect = self.cross_bisect.wrapping_add(other.cross_bisect);
        self.cross_scan = self.cross_scan.wrapping_add(other.cross_scan);
        self.cross_cyclic = self.cross_cyclic.wrapping_add(other.cross_cyclic);
    }
}

impl PiecewiseConstant {
    /// Creates a piecewise-constant function.
    ///
    /// `breakpoints` must be strictly increasing and contain exactly one
    /// more element than `values`.
    ///
    /// # Errors
    ///
    /// Returns [`PiecewiseError`] on length mismatch, non-monotone
    /// breakpoints, non-finite values, or an empty domain with
    /// [`Extension::Cycle`].
    pub fn new(
        breakpoints: Vec<SimTime>,
        values: Vec<f64>,
        extension: Extension,
    ) -> Result<Self, PiecewiseError> {
        if breakpoints.len() != values.len() + 1 || values.is_empty() {
            return Err(PiecewiseError::LengthMismatch {
                breakpoints: breakpoints.len(),
                values: values.len(),
            });
        }
        for (i, w) in breakpoints.windows(2).enumerate() {
            if w[0] >= w[1] {
                return Err(PiecewiseError::NotIncreasing { index: i + 1 });
            }
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(PiecewiseError::NonFiniteValue { index });
        }
        if extension == Extension::Cycle && breakpoints.first() == breakpoints.last() {
            return Err(PiecewiseError::EmptyCycle);
        }
        Ok(Self::build(breakpoints, values, extension))
    }

    /// Assembles the struct and its derived caches from validated parts.
    fn build(breakpoints: Vec<SimTime>, values: Vec<f64>, extension: Extension) -> Self {
        let mut prefix = Vec::with_capacity(breakpoints.len());
        let mut acc = 0.0;
        prefix.push(0.0);
        for (i, &v) in values.iter().enumerate() {
            acc += v * (breakpoints[i + 1] - breakpoints[i]).as_units();
            prefix.push(acc);
        }
        let vmin = values.iter().copied().fold(f64::INFINITY, f64::min);
        let vmax = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let dt = (breakpoints[1] - breakpoints[0]).as_ticks();
        let uniform_dt = if breakpoints
            .windows(2)
            .all(|w| (w[1] - w[0]).as_ticks() == dt)
        {
            dt
        } else {
            0
        };
        PiecewiseConstant {
            breakpoints,
            values,
            extension,
            prefix,
            vmin,
            vmax,
            uniform_dt,
            inv_dt: if uniform_dt == 0 {
                0.0
            } else {
                1.0 / uniform_dt as f64
            },
        }
    }

    /// A function that is `value` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn constant(value: f64) -> Self {
        assert!(value.is_finite(), "constant value must be finite");
        Self::build(
            vec![SimTime::ZERO, SimTime::from_whole_units(1)],
            vec![value],
            Extension::Hold,
        )
    }

    /// Builds a profile from equally spaced samples starting at `start`,
    /// each sample holding for `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`PiecewiseError`] if `samples` is empty, `dt` is not
    /// positive, or a sample is not finite.
    pub fn from_samples(
        start: SimTime,
        dt: SimDuration,
        samples: Vec<f64>,
        extension: Extension,
    ) -> Result<Self, PiecewiseError> {
        if samples.is_empty() || !dt.is_positive() {
            return Err(PiecewiseError::LengthMismatch {
                breakpoints: 0,
                values: samples.len(),
            });
        }
        let mut breakpoints = Vec::with_capacity(samples.len() + 1);
        let mut t = start;
        for _ in 0..=samples.len() {
            breakpoints.push(t);
            t += dt;
        }
        PiecewiseConstant::new(breakpoints, samples, extension)
    }

    /// Start of the explicitly defined domain.
    #[inline]
    pub fn domain_start(&self) -> SimTime {
        self.breakpoints[0]
    }

    /// End of the explicitly defined domain (exclusive).
    #[inline]
    pub fn domain_end(&self) -> SimTime {
        *self.breakpoints.last().expect("non-empty by construction")
    }

    /// The extension rule in force outside the domain.
    #[inline]
    pub fn extension(&self) -> Extension {
        self.extension
    }

    /// Number of constant segments in the explicit domain.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.values.len()
    }

    /// The segment values in the explicit domain.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Integral of one full domain span (one period under
    /// [`Extension::Cycle`]).
    #[inline]
    fn total(&self) -> f64 {
        *self.prefix.last().expect("non-empty by construction")
    }

    /// Mean value of the function over its explicit domain.
    pub fn domain_mean(&self) -> f64 {
        let len = (self.domain_end() - self.domain_start()).as_units();
        self.total() / len
    }

    /// Maximum value over the explicit domain.
    #[inline]
    pub fn domain_max(&self) -> f64 {
        self.vmax
    }

    /// Minimum value over the explicit domain.
    #[inline]
    pub fn domain_min(&self) -> f64 {
        self.vmin
    }

    /// Creates a fresh [`Cursor`] for this profile.
    #[inline]
    pub fn cursor(&self) -> Cursor {
        Cursor::default()
    }

    /// Maps `t` into the explicit domain, returning the folded instant,
    /// the period image it fell in (non-zero only under `Cycle`), and
    /// whether the original instant was outside a non-cyclic domain.
    #[inline]
    fn fold_with_period(&self, t: SimTime) -> (SimTime, i64, Outside) {
        let start = self.domain_start();
        let end = self.domain_end();
        if t >= start && t < end {
            return (t, 0, Outside::Inside);
        }
        match self.extension {
            Extension::Cycle => {
                let period = (end - start).as_ticks();
                let rel = (t - start).as_ticks();
                let k = rel.div_euclid(period);
                let r = rel.rem_euclid(period);
                (start + SimDuration::from_ticks(r), k, Outside::Inside)
            }
            _ if t < start => (t, 0, Outside::Before),
            _ => (t, 0, Outside::After),
        }
    }

    /// Segment index containing `t`, which must lie inside the explicit
    /// domain. On a uniform grid this is [`Self::grid_index`], one
    /// division. Otherwise `hint` is the caller's last known index: the
    /// search gallops forward from it with doubling strides and
    /// binary-searches only the bracketed range, so a lookup `d`
    /// segments past the hint costs `O(log d)` — `O(1)` for the
    /// repeat/adjacent hits that dominate monotone sweeps — instead of
    /// `O(log n)` from scratch.
    #[inline]
    fn locate(&self, t: SimTime, hint: Option<usize>) -> usize {
        if self.uniform_dt != 0 {
            return self.grid_index(t);
        }
        let bps = &self.breakpoints;
        let last = self.values.len() - 1;
        if let Some(h) = hint {
            let lo = h.min(last);
            if bps[lo] <= t {
                if lo == last || bps[lo + 1] > t {
                    return lo;
                }
                // Gallop: find the first `lo + stride` past `t`, then
                // binary-search inside the bracket.
                let mut stride = 1usize;
                let mut below = lo + 1; // invariant: bps[below] <= t
                loop {
                    let probe = below.saturating_add(stride).min(last);
                    if bps[probe] <= t {
                        if probe == last {
                            return last;
                        }
                        below = probe;
                        stride *= 2;
                    } else {
                        // bps[below] <= t < bps[probe]
                        let range = &bps[below + 1..probe];
                        return below + range.partition_point(|&b| b <= t);
                    }
                }
            }
        }
        // partition_point returns the count of breakpoints <= t;
        // segment index is that count minus one.
        (bps.partition_point(|&b| b <= t) - 1).min(last)
    }

    /// Segment index of an in-domain instant on a uniform grid.
    ///
    /// Uniform breakpoints sit at exactly `start + k·dt` (construction
    /// verified every whole-tick gap), so the index is `(t − start) / dt`
    /// — the same index the breakpoint search returns. The division is
    /// strength-reduced to a reciprocal multiply with an exactness check:
    /// in-domain offsets are far below 2^52, so the estimate is off by at
    /// most one step, and a wrong estimate (or a pathologically large
    /// offset) falls back to the exact division.
    #[inline]
    fn grid_index(&self, t: SimTime) -> usize {
        let dt = self.uniform_dt;
        let n = (t - self.domain_start()).as_ticks();
        let mut k = (n as f64 * self.inv_dt) as i64;
        let lo = k.wrapping_mul(dt);
        if !(lo <= n && n.wrapping_sub(lo) < dt) {
            k = n / dt;
        }
        debug_assert_eq!(k, n / dt);
        debug_assert!(
            (0..self.values.len() as i64).contains(&k),
            "instant {t} outside the grid domain"
        );
        k as usize
    }

    /// [`locate`](Self::locate) driven by (and refreshing) a cursor. The
    /// hint is only trusted within the same period image.
    #[inline]
    fn locate_with(&self, cur: &mut Cursor, folded: SimTime, period: i64) -> usize {
        let hint = if cur.init && cur.period == period {
            Some(cur.idx)
        } else {
            None
        };
        let idx = self.locate(folded, hint);
        let mut stats = cur.stats;
        stats.locates = stats.locates.wrapping_add(1);
        match hint {
            Some(h) => {
                let lo = h.min(self.values.len() - 1);
                if idx == lo {
                    stats.hint_hits = stats.hint_hits.wrapping_add(1);
                } else if idx > lo {
                    stats.gallops = stats.gallops.wrapping_add(1);
                    stats.gallop_segments = stats.gallop_segments.wrapping_add((idx - lo) as u32);
                } else {
                    stats.backward_jumps = stats.backward_jumps.wrapping_add(1);
                }
            }
            None => stats.fresh_searches = stats.fresh_searches.wrapping_add(1),
        }
        *cur = Cursor {
            idx,
            period,
            init: true,
            stats,
        };
        idx
    }

    /// Value of the function at instant `t`.
    pub fn value_at(&self, t: SimTime) -> f64 {
        self.value_at_with(&mut Cursor::default(), t)
    }

    /// [`value_at`](Self::value_at) with cursor acceleration.
    pub fn value_at_with(&self, cur: &mut Cursor, t: SimTime) -> f64 {
        let (folded, period, outside) = self.fold_with_period(t);
        match outside {
            Outside::Before => self.before_value(),
            Outside::After => self.after_value(),
            Outside::Inside => self.values[self.locate_with(cur, folded, period)],
        }
    }

    /// Cumulative integral `F(t) = ∫ f over [domain_start, t)` (signed:
    /// negative for `t` before the domain start), with all three
    /// extensions folded in closed form. A full `Cycle` period is the
    /// constant `total()`, so no periods are ever unrolled.
    fn cum_with(&self, cur: &mut Cursor, t: SimTime) -> f64 {
        let start = self.domain_start();
        let end = self.domain_end();
        if t >= start && t < end {
            let idx = self.locate_with(cur, t, 0);
            return self.prefix[idx] + self.values[idx] * (t - self.breakpoints[idx]).as_units();
        }
        match self.extension {
            Extension::Hold => {
                if t < start {
                    self.values[0] * (t - start).as_units()
                } else {
                    self.total() + self.values[self.values.len() - 1] * (t - end).as_units()
                }
            }
            Extension::Zero => {
                if t < start {
                    0.0
                } else {
                    self.total()
                }
            }
            Extension::Cycle => {
                let period = (end - start).as_ticks();
                let rel = (t - start).as_ticks();
                let k = rel.div_euclid(period);
                let r = rel.rem_euclid(period);
                let folded = start + SimDuration::from_ticks(r);
                let idx = self.locate_with(cur, folded, k);
                let inner = self.prefix[idx]
                    + self.values[idx] * (folded - self.breakpoints[idx]).as_units();
                k as f64 * self.total() + inner
            }
        }
    }

    #[inline]
    fn cum(&self, t: SimTime) -> f64 {
        self.cum_with(&mut Cursor::default(), t)
    }

    /// Exact integral of the function over `[t1, t2)`, computed as the
    /// antiderivative difference `F(t2) − F(t1)` — one binary search per
    /// endpoint, independent of how many segments the window spans.
    ///
    /// Returns a negated integral when `t2 < t1` (exactly: IEEE
    /// subtraction is antisymmetric).
    pub fn integrate(&self, t1: SimTime, t2: SimTime) -> f64 {
        self.cum(t2) - self.cum(t1)
    }

    /// [`integrate`](Self::integrate) with cursor acceleration: both
    /// endpoints resolve through `cur`, so windows that slide forward in
    /// time cost amortized `O(1)`.
    pub fn integrate_with(&self, cur: &mut Cursor, t1: SimTime, t2: SimTime) -> f64 {
        let a = self.cum_with(cur, t1);
        let b = self.cum_with(cur, t2);
        b - a
    }

    /// Reference implementation of [`integrate`](Self::integrate) that
    /// walks every segment in the window.
    ///
    /// Kept as the ground truth for property tests and as the baseline
    /// for benchmarks; `O(segments in window)` instead of `O(log n)`.
    pub fn integrate_naive(&self, t1: SimTime, t2: SimTime) -> f64 {
        if t2 < t1 {
            return -self.integrate_naive(t2, t1);
        }
        self.segments_between(t1, t2).map(|s| s.integral()).sum()
    }

    /// Iterates the maximal constant stretches of the function restricted
    /// to the window `[t1, t2)`, in order, covering it exactly.
    ///
    /// The iterator resolves the segment holding `t1` once and then
    /// carries the index forward, so every later step is `O(1)` and
    /// needs no lookup at all.
    pub fn segments_between(&self, t1: SimTime, t2: SimTime) -> Segments<'_> {
        self.segments_between_with(Cursor::default(), t1, t2)
    }

    /// Like [`Self::segments_between`], but seeds the iterator's internal
    /// [`Cursor`] with `cur` so callers that walk consecutive windows can
    /// thread position across calls (retrieve the final state with
    /// [`Segments::state`]). The yielded segments are identical for any
    /// seed cursor; only the lookup cost changes.
    pub fn segments_between_with(&self, cur: Cursor, t1: SimTime, t2: SimTime) -> Segments<'_> {
        Segments {
            f: self,
            cursor: t1,
            end: t2,
            cur,
            carried: false,
        }
    }

    /// Earliest `t ≥ from` at which the *accumulated* value
    /// `acc(t) = initial + ∫_from^t (f(u) + offset) du`, clamped to
    /// `[0, cap]` along the way, first reaches `target`.
    ///
    /// This is the primitive behind "when does the storage fill/empty"
    /// queries: `offset` is the (negated) constant drain, `cap` the
    /// storage capacity. Returns `None` if the level never reaches
    /// `target` before `horizon`.
    ///
    /// When the net rate `f + offset` cannot change sign the level is
    /// monotone, clamping cannot precede the crossing, and the answer is
    /// found by bisecting the prefix-sum antiderivative — `O(log n)`
    /// searches instead of a segment scan. Unreachable targets
    /// (net rate bounded away from the required direction, or a target
    /// the rate bounds cannot reach within the window) return `None`
    /// in `O(1)`. Only the remaining non-monotone queries fall back to a
    /// clamped segment scan, which under [`Extension::Cycle`] skips
    /// provably event-free periods in closed form.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative, or `initial`/`target` fall outside
    /// `[0, cap]`.
    pub fn first_accumulation_crossing(
        &self,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        self.first_accumulation_crossing_with(
            &mut Cursor::default(),
            from,
            horizon,
            initial,
            offset,
            cap,
            target,
        )
    }

    /// [`first_accumulation_crossing`](Self::first_accumulation_crossing)
    /// with cursor acceleration for the `from` endpoint — useful when
    /// crossing queries are issued at monotonically increasing instants.
    // One argument per scalar of the accumulation problem; bundling them
    // would only obscure the call sites.
    #[allow(clippy::too_many_arguments)]
    pub fn first_accumulation_crossing_with(
        &self,
        cur: &mut Cursor,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        assert!(cap >= 0.0, "capacity must be non-negative");
        assert!(
            (0.0..=cap).contains(&initial),
            "initial level outside [0, cap]"
        );
        assert!(
            (0.0..=cap).contains(&target),
            "target level outside [0, cap]"
        );
        if initial == target {
            return Some(from);
        }
        if from >= horizon {
            return None;
        }
        // Bounds on the net rate f + offset over all time. Under `Zero`
        // the tails contribute rate `offset` alone, so fold 0 into the
        // value bounds conservatively.
        let (lo, hi) = match self.extension {
            Extension::Zero => (self.vmin.min(0.0), self.vmax.max(0.0)),
            _ => (self.vmin, self.vmax),
        };
        let (rate_min, rate_max) = (lo + offset, hi + offset);
        // The old scanner only crossed upward in segments with rate > 0
        // and downward with rate < 0; a rate bound pinned on the wrong
        // side of zero decides the query in O(1).
        if (target > initial && rate_max <= 0.0) || (target < initial && rate_min >= 0.0) {
            cur.stats.cross_reject = cur.stats.cross_reject.wrapping_add(1);
            return None;
        }
        let monotone =
            (target > initial && rate_min >= 0.0) || (target < initial && rate_max <= 0.0);
        if monotone {
            cur.stats.cross_bisect = cur.stats.cross_bisect.wrapping_add(1);
            return self.monotone_crossing(cur, from, horizon, initial, offset, target);
        }
        // Window bound: with rate_min < 0 < rate_max here, the clamped
        // level moves at a rate inside [rate_min, rate_max] (a clamp
        // only pins it), so over the window it stays within
        // [initial + rate_min·span, initial + rate_max·span]. A target
        // beyond that band by more than `margin` — far above the scan's
        // rounding and its 1e-15 tolerance — is never crossed.
        let span = (horizon - from).as_units();
        let margin = 1e-9 * (1.0 + cap);
        if (target < initial && initial + rate_min * span > target + margin)
            || (target > initial && initial + rate_max * span < target - margin)
        {
            cur.stats.cross_reject = cur.stats.cross_reject.wrapping_add(1);
            return None;
        }
        let mut scan = ClampedScan {
            level: initial,
            offset,
            cap,
            target,
        };
        match self.extension {
            Extension::Cycle => {
                cur.stats.cross_cyclic = cur.stats.cross_cyclic.wrapping_add(1);
                self.scan_crossing_cyclic(&mut scan, from, horizon)
            }
            _ => {
                cur.stats.cross_scan = cur.stats.cross_scan.wrapping_add(1);
                scan.run(self, from, horizon, None)
            }
        }
    }

    /// Reference implementation of
    /// [`first_accumulation_crossing`](Self::first_accumulation_crossing):
    /// a linear scan over every segment in `[from, horizon)`.
    ///
    /// Kept as the ground truth for property tests and as the baseline
    /// for benchmarks.
    ///
    /// # Panics
    ///
    /// Same contract as the fast path.
    pub fn first_accumulation_crossing_naive(
        &self,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        cap: f64,
        target: f64,
    ) -> Option<SimTime> {
        assert!(cap >= 0.0, "capacity must be non-negative");
        assert!(
            (0.0..=cap).contains(&initial),
            "initial level outside [0, cap]"
        );
        assert!(
            (0.0..=cap).contains(&target),
            "target level outside [0, cap]"
        );
        if initial == target {
            return Some(from);
        }
        let mut scan = ClampedScan {
            level: initial,
            offset,
            cap,
            target,
        };
        scan.run(self, from, horizon, None)
    }

    /// Crossing solve for a provably monotone level trajectory: clamping
    /// cannot strike before the crossing, so the accumulated gain
    /// `g(t) = F(t) − F(from) + offset·(t − from)` is monotone and the
    /// earliest tick reaching the threshold is found by bisection. Each
    /// probe is one prefix-table evaluation, so the whole solve is
    /// `O(log T · log n)` for a horizon `T` ticks away — no segment is
    /// ever walked. A zero-offset rise inside the domain first narrows
    /// the bracket from a prefix-table estimate, so it bisects only a
    /// few ticks.
    fn monotone_crossing(
        &self,
        cur: &mut Cursor,
        from: SimTime,
        horizon: SimTime,
        initial: f64,
        offset: f64,
        target: f64,
    ) -> Option<SimTime> {
        let needed = target - initial;
        let cum_from = self.cum_with(cur, from);
        let g_at = |t: SimTime| self.cum(t) - cum_from + offset * (t - from).as_units();
        // Mirror the scanner's crossing tolerance of ±1e-15.
        let reached = |g: f64| {
            if needed > 0.0 {
                g >= needed - 1e-15
            } else {
                g <= needed + 1e-15
            }
        };
        if reached(0.0) {
            // |needed| ≤ 1e-15: within tolerance immediately.
            return Some(from);
        }
        if !reached(g_at(horizon)) {
            return None;
        }
        let (mut lo, mut hi) = (from.as_ticks(), horizon.as_ticks());
        // Zero offset, rising, inside the domain (the stall recharge at
        // idle power 0): `g` is `cum(t) − cum_from`, and `cum` is
        // monotone in floating point over the domain — each segment
        // adds `v·u` with `v ≥ 0` and `u` no longer than the span its
        // prefix entry added. So `reached` flips exactly once, and any
        // bracket around that tick bisects to the same answer. Estimate
        // the tick from the prefix table, then gallop outwards from it
        // with the same predicate to a bracket a few ticks wide.
        if offset == 0.0
            && needed > 0.0
            && from >= self.domain_start()
            && horizon <= self.domain_end()
        {
            let want = cum_from + needed;
            // First breakpoint whose prefix reaches `want`, galloping
            // from the segment of `from` that `cum_with` just left in
            // the cursor; the crossing lies in the segment ending there
            // (the last segment if none does).
            let n = self.values.len();
            let (mut below, mut stride) = (cur.idx, 1);
            let above = loop {
                let probe = below + stride;
                if probe > n {
                    break n + 1;
                }
                if self.prefix[probe] >= want {
                    break probe;
                }
                below = probe;
                stride *= 2;
            };
            let first = below + 1 + self.prefix[below + 1..above].partition_point(|&p| p < want);
            let k = (first - 1).min(n - 1);
            let (v, base) = (self.values[k], self.breakpoints[k]);
            let est = if v > 0.0 {
                (base.as_units() + (want - self.prefix[k]) / v) * TICKS_PER_UNIT as f64
            } else {
                base.as_ticks() as f64
            };
            let est = (est.ceil() as i64).clamp(lo + 1, hi);
            let at = |t: i64| reached(g_at(SimTime::from_ticks(t)));
            let mut step = 1;
            if at(est) {
                hi = est;
                while hi - step > lo {
                    if !at(hi - step) {
                        lo = hi - step;
                        break;
                    }
                    hi -= step;
                    step *= 2;
                }
            } else {
                lo = est;
                while lo + step < hi {
                    if at(lo + step) {
                        hi = lo + step;
                        break;
                    }
                    lo += step;
                    step *= 2;
                }
            }
        }
        // Invariant: not reached at lo, reached at hi.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reached(g_at(SimTime::from_ticks(mid))) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(SimTime::from_ticks(hi))
    }

    /// Clamped scan under [`Extension::Cycle`]: scans period by period,
    /// but (a) stops as soon as one full period returns to its entry
    /// level without crossing — the trajectory is then exactly periodic
    /// and will never cross — and (b) after probing one clamp-free
    /// period, skips every future period whose extrapolated excursion
    /// envelope provably avoids the target, the floor, and the cap.
    fn scan_crossing_cyclic(
        &self,
        scan: &mut ClampedScan,
        from: SimTime,
        horizon: SimTime,
    ) -> Option<SimTime> {
        let start = self.domain_start();
        let period_ticks = (self.domain_end() - start).as_ticks();
        let period = SimDuration::from_ticks(period_ticks);
        let mut t = from;
        // Align to the next period boundary so probes always cover one
        // full period at a fixed phase.
        let rel = (t - start).as_ticks().rem_euclid(period_ticks);
        if rel != 0 {
            let boundary = t + SimDuration::from_ticks(period_ticks - rel);
            if let Some(hit) = scan.run(self, t, boundary.min(horizon), None) {
                return Some(hit);
            }
            if boundary >= horizon {
                return None;
            }
            t = boundary;
        }
        while t < horizon {
            let pe = t + period;
            if pe > horizon {
                return scan.run(self, t, horizon, None);
            }
            let entry = scan.level;
            let mut probe = Probe {
                lo: entry,
                hi: entry,
                clamped: false,
            };
            if let Some(hit) = scan.run(self, t, pe, Some(&mut probe)) {
                return Some(hit);
            }
            t = pe;
            if scan.level == entry {
                // Fixed point of the one-period level map: the trajectory
                // repeats this (crossing-free) period forever.
                return None;
            }
            if probe.clamped {
                continue;
            }
            let delta = scan.level - entry;
            let (e_lo, e_hi) = (probe.lo - entry, probe.hi - entry);
            // Safety margin dominating both the scanner's ±1e-15 crossing
            // tolerance and the extrapolation dust of `level + j·delta`
            // versus the iterated sum.
            let margin = 1e-9 * (1.0 + scan.cap.abs() + scan.target.abs());
            let avail = (horizon - t).as_ticks() / period_ticks;
            let k = avail
                .min(periods_while_at_most(
                    scan.level + e_hi,
                    delta,
                    scan.cap - margin,
                ))
                .min(periods_while_at_least(scan.level + e_lo, delta, margin))
                .min(
                    periods_while_at_most(scan.level + e_hi, delta, scan.target - margin).max(
                        periods_while_at_least(scan.level + e_lo, delta, scan.target + margin),
                    ),
                );
            if k > 0 {
                scan.level += k as f64 * delta;
                t += SimDuration::from_ticks(k * period_ticks);
            }
        }
        None
    }
}

/// Number of leading periods `j = 0, 1, …` for which `base + j·delta`
/// stays `≤ bound`. Saturates when the drift never violates the bound.
fn periods_while_at_most(base: f64, delta: f64, bound: f64) -> i64 {
    if base > bound {
        return 0;
    }
    if delta <= 0.0 {
        return i64::MAX;
    }
    let j = ((bound - base) / delta).floor();
    if j.is_nan() || j < 0.0 {
        return 0;
    }
    if j >= i64::MAX as f64 {
        return i64::MAX;
    }
    // j is the last index still within the bound, so j + 1 periods hold.
    j as i64 + 1
}

/// Number of leading periods `j = 0, 1, …` for which `base + j·delta`
/// stays `≥ bound`.
fn periods_while_at_least(base: f64, delta: f64, bound: f64) -> i64 {
    if base < bound {
        return 0;
    }
    if delta >= 0.0 {
        return i64::MAX;
    }
    let j = ((base - bound) / -delta).floor();
    if j.is_nan() || j < 0.0 {
        return 0;
    }
    if j >= i64::MAX as f64 {
        return i64::MAX;
    }
    j as i64 + 1
}

/// Unclamped excursion envelope observed while scanning one full period.
struct Probe {
    lo: f64,
    hi: f64,
    clamped: bool,
}

/// The clamped accumulation scanner: the exact per-segment arithmetic of
/// the original `first_accumulation_crossing`, preserved verbatim so the
/// fast paths layered on top stay tick-identical with the historical
/// behaviour.
struct ClampedScan {
    level: f64,
    offset: f64,
    cap: f64,
    target: f64,
}

impl ClampedScan {
    /// Scans `[lo, hi)`, returning the first crossing instant or updating
    /// `self.level` to the clamped level at `hi`. When `probe` is given,
    /// records the unclamped excursion envelope along the way.
    fn run(
        &mut self,
        f: &PiecewiseConstant,
        lo: SimTime,
        hi: SimTime,
        mut probe: Option<&mut Probe>,
    ) -> Option<SimTime> {
        for seg in f.segments_between(lo, hi) {
            let rate = seg.value + self.offset;
            let span = seg.duration().as_units();
            let unclamped_end = self.level + rate * span;
            let crossed = if rate > 0.0 {
                self.target > self.level && self.target <= unclamped_end.min(self.cap) + 1e-15
            } else if rate < 0.0 {
                self.target < self.level && self.target >= unclamped_end.max(0.0) - 1e-15
            } else {
                false
            };
            if crossed {
                let dt = (self.target - self.level) / rate;
                let t = SimTime::from_units_ceil(seg.start.as_units() + dt);
                return Some(t.min(seg.end).max(seg.start));
            }
            if let Some(p) = probe.as_deref_mut() {
                p.lo = p.lo.min(self.level.min(unclamped_end));
                p.hi = p.hi.max(self.level.max(unclamped_end));
                p.clamped |= unclamped_end < 0.0 || unclamped_end > self.cap;
            }
            self.level = unclamped_end.clamp(0.0, self.cap);
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outside {
    Inside,
    Before,
    After,
}

/// Iterator over [`Segment`]s, produced by
/// [`PiecewiseConstant::segments_between`].
#[derive(Debug)]
pub struct Segments<'a> {
    f: &'a PiecewiseConstant,
    cursor: SimTime,
    end: SimTime,
    cur: Cursor,
    /// `true` while `cur` addresses exactly the segment (and period
    /// image) that starts at `cursor`: the previous step ended on that
    /// segment's first breakpoint, so the next step reads it directly
    /// instead of locating it.
    carried: bool,
}

impl Segments<'_> {
    /// The iterator's current [`Cursor`], for threading into a later
    /// [`PiecewiseConstant::segments_between_with`] call over a window
    /// that resumes where this one stopped.
    pub fn state(&self) -> Cursor {
        self.cur
    }
}

impl Iterator for Segments<'_> {
    type Item = Segment;

    /// One clipped segment. The value and the next breakpoint are the
    /// ones [`PiecewiseConstant::value_at_with`] and
    /// [`PiecewiseConstant::next_breakpoint_after_with`] return at
    /// `start`; at most the first step of a window looks a segment up.
    fn next(&mut self) -> Option<Segment> {
        if self.cursor >= self.end {
            return None;
        }
        let start = self.cursor;
        let f = self.f;
        let inside = if self.carried {
            Some((self.cur.idx, self.cur.period))
        } else {
            match f.fold_with_period(start) {
                (folded, period, Outside::Inside) => {
                    Some((f.locate_with(&mut self.cur, folded, period), period))
                }
                _ => None,
            }
        };
        // `following` is the segment that starts at `next_change`: the
        // next index, wrapping into the next period image under `Cycle`,
        // or the domain's first after a `Hold` / `Zero` lead-in. Past
        // the domain end there is no index to carry.
        let (value, next_change, following) = match inside {
            Some((idx, period)) => {
                let following = if idx + 1 < f.values.len() {
                    Some((idx + 1, period))
                } else if f.extension == Extension::Cycle {
                    Some((0, period + 1))
                } else {
                    None
                };
                (
                    f.values[idx],
                    f.breakpoint_image(idx + 1, period),
                    following,
                )
            }
            None if start < f.domain_start() => (f.before_value(), f.domain_start(), Some((0, 0))),
            None => (f.after_value(), SimTime::MAX, None),
        };
        let end = next_change.min(self.end);
        debug_assert!(end > start, "segment iterator must make progress");
        self.cursor = end;
        self.carried = false;
        if end == next_change {
            if let Some((idx, period)) = following {
                self.cur.idx = idx;
                self.cur.period = period;
                self.cur.init = true;
                self.carried = true;
            }
        }
        Some(Segment { start, end, value })
    }
}

impl PiecewiseConstant {
    /// `breakpoints[i]` shifted into period image `period` (always 0
    /// unless `Cycle`).
    #[inline]
    fn breakpoint_image(&self, i: usize, period: i64) -> SimTime {
        if period == 0 {
            return self.breakpoints[i];
        }
        let span = (self.domain_end() - self.domain_start()).as_ticks();
        self.breakpoints[i] + SimDuration::from_ticks(period * span)
    }

    /// The value before a non-cyclic domain.
    #[inline]
    fn before_value(&self) -> f64 {
        match self.extension {
            Extension::Hold => self.values[0],
            _ => 0.0,
        }
    }

    /// The value after a non-cyclic domain.
    #[inline]
    fn after_value(&self) -> f64 {
        match self.extension {
            Extension::Hold => self.values[self.values.len() - 1],
            _ => 0.0,
        }
    }

    /// Earliest breakpoint strictly after `t` at which the value may
    /// change, taking the extension rule into account. `None` means the
    /// function is constant for all time after `t`.
    pub fn next_breakpoint_after(&self, t: SimTime) -> Option<SimTime> {
        self.next_breakpoint_after_with(&mut Cursor::default(), t)
    }

    /// [`next_breakpoint_after`](Self::next_breakpoint_after) with cursor
    /// acceleration.
    pub fn next_breakpoint_after_with(&self, cur: &mut Cursor, t: SimTime) -> Option<SimTime> {
        // The folded instant lies in some segment [b_i, b_{i+1}) of its
        // period image; b_{i+1} in that image is the first breakpoint
        // strictly after `t`.
        match self.fold_with_period(t) {
            (_, _, Outside::Before) => Some(self.domain_start()),
            (_, _, Outside::After) => None,
            (folded, period, Outside::Inside) => {
                let idx = self.locate_with(cur, folded, period);
                Some(self.breakpoint_image(idx + 1, period))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fn() -> PiecewiseConstant {
        PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(10),
                SimTime::from_whole_units(20),
                SimTime::from_whole_units(30),
            ],
            vec![2.0, 0.5, 4.0],
            Extension::Hold,
        )
        .unwrap()
    }

    #[test]
    fn cursor_stats_track_lookup_modes() {
        let f = sample_fn();
        let mut cur = f.cursor();
        let u = SimTime::from_whole_units;
        f.value_at_with(&mut cur, u(1)); // no usable hint yet
        f.value_at_with(&mut cur, u(2)); // same segment: hint hit
        f.value_at_with(&mut cur, u(25)); // two segments forward: gallop
        f.value_at_with(&mut cur, u(1)); // backward jump
        let s = cur.stats();
        assert_eq!(s.locates, 4);
        assert_eq!(s.fresh_searches, 1);
        assert_eq!(s.hint_hits, 1);
        assert_eq!(s.gallops, 1);
        assert_eq!(s.gallop_segments, 2);
        assert_eq!(s.backward_jumps, 1);
    }

    #[test]
    fn cursor_stats_track_crossing_tiers() {
        let u = SimTime::from_whole_units;
        // Strictly positive rates: upward crossings bisect, downward
        // targets are rejected in O(1).
        let f = sample_fn();
        let mut cur = f.cursor();
        assert!(f
            .first_accumulation_crossing_with(&mut cur, u(0), u(30), 0.0, 0.0, 100.0, 50.0)
            .is_some());
        assert!(f
            .first_accumulation_crossing_with(&mut cur, u(0), u(30), 50.0, 0.0, 100.0, 10.0)
            .is_none());
        let s = cur.stats();
        assert_eq!(s.cross_bisect, 1);
        assert_eq!(s.cross_reject, 1);
        assert_eq!(s.cross_scan, 0);

        // Mixed-sign rates force the clamped segment scan.
        let g = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Hold,
        )
        .unwrap();
        let mut gcur = g.cursor();
        g.first_accumulation_crossing_with(&mut gcur, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(gcur.stats().cross_scan, 1);
        // Falling at most 1 per unit, a level of 50 cannot empty within
        // 2 units: the window bound rejects without a scan.
        assert!(g
            .first_accumulation_crossing_with(&mut gcur, u(0), u(2), 50.0, 0.0, 100.0, 0.0)
            .is_none());
        assert_eq!(gcur.stats().cross_scan, 1);
        assert_eq!(gcur.stats().cross_reject, 1);

        // The same query under Cycle takes the period-skip scanner.
        let c = PiecewiseConstant::new(
            vec![SimTime::ZERO, u(10), u(20)],
            vec![1.0, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let mut ccur = c.cursor();
        c.first_accumulation_crossing_with(&mut ccur, u(0), u(20), 0.0, 0.0, 100.0, 5.0);
        assert_eq!(ccur.stats().cross_cyclic, 1);
    }

    #[test]
    fn cursor_stats_survive_segment_iteration() {
        let f = sample_fn();
        let mut total = 0u32;
        let mut segs = f.segments_between_with(
            f.cursor(),
            SimTime::from_whole_units(0),
            SimTime::from_whole_units(30),
        );
        for _ in segs.by_ref() {}
        total = total.wrapping_add(segs.state().stats().locates);
        assert!(total > 0, "segment iteration drives the cursor");
    }

    #[test]
    fn construction_validates_lengths() {
        let err = PiecewiseConstant::new(vec![SimTime::ZERO], vec![], Extension::Hold);
        assert!(matches!(err, Err(PiecewiseError::LengthMismatch { .. })));
    }

    #[test]
    fn construction_validates_monotonicity() {
        let err = PiecewiseConstant::new(
            vec![SimTime::ZERO, SimTime::ZERO],
            vec![1.0],
            Extension::Hold,
        );
        assert!(matches!(
            err,
            Err(PiecewiseError::NotIncreasing { index: 1 })
        ));
    }

    #[test]
    fn construction_validates_values() {
        let err = PiecewiseConstant::new(
            vec![SimTime::ZERO, SimTime::from_whole_units(1)],
            vec![f64::NAN],
            Extension::Hold,
        );
        assert!(matches!(
            err,
            Err(PiecewiseError::NonFiniteValue { index: 0 })
        ));
    }

    #[test]
    fn value_lookup_half_open_intervals() {
        let f = sample_fn();
        assert_eq!(f.value_at(SimTime::ZERO), 2.0);
        assert_eq!(f.value_at(SimTime::from_units(9.999_999)), 2.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(10)), 0.5);
        assert_eq!(f.value_at(SimTime::from_whole_units(29)), 4.0);
    }

    #[test]
    fn hold_extension_clamps_both_sides() {
        let f = sample_fn();
        assert_eq!(f.value_at(SimTime::from_whole_units(-5)), 2.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(99)), 4.0);
    }

    #[test]
    fn zero_extension_vanishes_outside() {
        let f = PiecewiseConstant::new(
            vec![SimTime::ZERO, SimTime::from_whole_units(10)],
            vec![3.0],
            Extension::Zero,
        )
        .unwrap();
        assert_eq!(f.value_at(SimTime::from_whole_units(-1)), 0.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(10)), 0.0);
        assert_eq!(
            f.integrate(SimTime::from_whole_units(-5), SimTime::from_whole_units(15)),
            30.0
        );
    }

    #[test]
    fn cycle_extension_repeats() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.0, 5.0],
            Extension::Cycle,
        )
        .unwrap();
        assert_eq!(f.value_at(SimTime::from_whole_units(4)), 1.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(5)), 5.0);
        assert_eq!(f.value_at(SimTime::from_whole_units(-1)), 5.0);
        // One full period integrates to 6 regardless of phase.
        let e = f.integrate(SimTime::from_units(3.5), SimTime::from_units(5.5));
        assert!((e - 6.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn integral_matches_hand_computation() {
        let f = sample_fn();
        let e = f.integrate(SimTime::from_whole_units(5), SimTime::from_whole_units(25));
        // 5·2.0 + 10·0.5 + 5·4.0 = 35
        assert!((e - 35.0).abs() < 1e-9);
    }

    #[test]
    fn reversed_integral_negates() {
        let f = sample_fn();
        let fwd = f.integrate(SimTime::ZERO, SimTime::from_whole_units(30));
        let back = f.integrate(SimTime::from_whole_units(30), SimTime::ZERO);
        assert_eq!(fwd, -back);
    }

    #[test]
    fn segments_cover_window_exactly() {
        let f = sample_fn();
        let segs: Vec<_> = f
            .segments_between(SimTime::from_whole_units(5), SimTime::from_whole_units(25))
            .collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, SimTime::from_whole_units(5));
        assert_eq!(segs[2].end, SimTime::from_whole_units(25));
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn segments_beyond_domain_use_extension() {
        let f = sample_fn();
        let segs: Vec<_> = f
            .segments_between(SimTime::from_whole_units(25), SimTime::from_whole_units(45))
            .collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].value, 4.0);
        assert_eq!(segs[1].end, SimTime::from_whole_units(45));
    }

    #[test]
    fn from_samples_builds_uniform_grid() {
        let f = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(2),
            vec![1.0, 2.0, 3.0],
            Extension::Hold,
        )
        .unwrap();
        assert_eq!(f.domain_end(), SimTime::from_whole_units(6));
        assert_eq!(f.value_at(SimTime::from_whole_units(3)), 2.0);
        assert!((f.domain_mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_fill_time() {
        // Charge at net +2 from level 1 toward target 5: takes 2 units.
        let f = PiecewiseConstant::constant(3.0);
        let t = f
            .first_accumulation_crossing(
                SimTime::ZERO,
                SimTime::from_whole_units(100),
                1.0,
                -1.0, // drain 1 → net +2
                10.0,
                5.0,
            )
            .unwrap();
        assert_eq!(t, SimTime::from_whole_units(2));
    }

    #[test]
    fn crossing_depletion_time_across_segments() {
        // 0 harvest for 3 units, then 1.0; drain 2.0; start level 4.
        // Level: 4 - 2t on [0,3) → 1 at t=3? No: 4-6 = -2 clamps at t=2.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(3),
                SimTime::from_whole_units(10),
            ],
            vec![0.0, 1.0],
            Extension::Hold,
        )
        .unwrap();
        let t = f
            .first_accumulation_crossing(
                SimTime::ZERO,
                SimTime::from_whole_units(10),
                4.0,
                -2.0,
                100.0,
                0.0,
            )
            .unwrap();
        assert_eq!(t, SimTime::from_whole_units(2));
    }

    #[test]
    fn crossing_unreachable_returns_none() {
        let f = PiecewiseConstant::constant(1.0);
        // Net rate zero: never reaches the target.
        let t = f.first_accumulation_crossing(
            SimTime::ZERO,
            SimTime::from_whole_units(50),
            1.0,
            -1.0,
            10.0,
            5.0,
        );
        assert_eq!(t, None);
    }

    #[test]
    fn crossing_respects_clamping() {
        // Strong drain empties the store in segment 1; recovery in
        // segment 2 must start from 0, not from the unclamped negative.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(5),
                SimTime::from_whole_units(100),
            ],
            vec![0.0, 2.0],
            Extension::Hold,
        )
        .unwrap();
        let t = f
            .first_accumulation_crossing(
                SimTime::ZERO,
                SimTime::from_whole_units(100),
                3.0,
                -1.0,
                10.0,
                4.0,
            )
            .unwrap();
        // Level hits 0 at t=3, stays 0 until 5, then rises at +1/unit:
        // reaches 4 at t=9.
        assert_eq!(t, SimTime::from_whole_units(9));
    }

    #[test]
    fn next_breakpoint_cycle_wraps() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(2),
                SimTime::from_whole_units(3),
            ],
            vec![1.0, 2.0],
            Extension::Cycle,
        )
        .unwrap();
        assert_eq!(
            f.next_breakpoint_after(SimTime::from_whole_units(4)),
            Some(SimTime::from_whole_units(5))
        );
        assert_eq!(
            f.next_breakpoint_after(SimTime::from_whole_units(5)),
            Some(SimTime::from_whole_units(6))
        );
    }

    #[test]
    fn domain_stats() {
        let f = sample_fn();
        assert_eq!(f.domain_max(), 4.0);
        assert_eq!(f.domain_min(), 0.5);
        let mean = f.domain_mean();
        assert!((mean - (20.0 + 5.0 + 40.0) / 30.0).abs() < 1e-12);
    }

    // ------------------------------------------------------------------
    // Prefix-table / cursor fast-path coverage.
    // ------------------------------------------------------------------

    #[test]
    fn prefix_integrate_matches_naive() {
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
            let f = PiecewiseConstant::new(
                vec![
                    SimTime::from_whole_units(-3),
                    SimTime::from_units(1.5),
                    SimTime::from_whole_units(4),
                    SimTime::from_units(7.25),
                ],
                vec![2.5, -1.0, 0.75],
                ext,
            )
            .unwrap();
            for (a, b) in [
                (-10.0, 20.0),
                (-5.5, -4.0),
                (2.0, 2.0),
                (13.0, 3.0),
                (6.9, 7.3),
            ] {
                let (t1, t2) = (SimTime::from_units(a), SimTime::from_units(b));
                let fast = f.integrate(t1, t2);
                let slow = f.integrate_naive(t1, t2);
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "{ext:?} [{a},{b}): fast={fast} naive={slow}"
                );
            }
        }
    }

    #[test]
    fn cursor_monotone_sweep_matches_cold_queries() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(2),
                SimTime::from_whole_units(3),
                SimTime::from_whole_units(7),
            ],
            vec![1.0, -2.0, 0.5],
            Extension::Cycle,
        )
        .unwrap();
        let mut cur = f.cursor();
        let mut t = SimTime::from_units(-4.25);
        while t < SimTime::from_whole_units(30) {
            assert_eq!(f.value_at_with(&mut cur, t), f.value_at(t), "value at {t}");
            assert_eq!(
                f.next_breakpoint_after_with(&mut cur, t),
                f.next_breakpoint_after(t),
                "next breakpoint after {t}"
            );
            let t2 = t + SimDuration::from_units(0.6);
            let want = f.integrate(t, t2);
            let got = f.integrate_with(&mut cur, t, t2);
            assert!(
                (got - want).abs() < 1e-9,
                "integral at {t}: {got} vs {want}"
            );
            t += SimDuration::from_units(0.35);
        }
    }

    #[test]
    fn cursor_tolerates_backward_jumps() {
        let f = sample_fn();
        let mut cur = f.cursor();
        let late = SimTime::from_whole_units(25);
        let early = SimTime::from_whole_units(1);
        assert_eq!(f.value_at_with(&mut cur, late), 4.0);
        assert_eq!(f.value_at_with(&mut cur, early), 2.0);
        assert_eq!(f.value_at_with(&mut cur, late), 4.0);
    }

    #[test]
    fn crossing_fast_path_matches_naive_on_breakpoint_aligned_target() {
        // Monotone upward crossing landing exactly on a breakpoint: the
        // prefix-seek rewrite must return the same tick as the scan.
        let f = sample_fn();
        let args = (
            SimTime::ZERO,
            SimTime::from_whole_units(100),
            0.0,
            -0.5,
            1000.0,
            25.0,
        );
        let fast = f.first_accumulation_crossing(args.0, args.1, args.2, args.3, args.4, args.5);
        let naive =
            f.first_accumulation_crossing_naive(args.0, args.1, args.2, args.3, args.4, args.5);
        // Net rates 1.5, 0.0, 3.5: level is 15 at t=10, flat to t=20,
        // reaching 25 needs 10/3.5 more — but with target 15 it lands on
        // the t=10 breakpoint exactly.
        assert_eq!(fast, naive);
        let aligned = f.first_accumulation_crossing(args.0, args.1, args.2, args.3, args.4, 15.0);
        let aligned_naive =
            f.first_accumulation_crossing_naive(args.0, args.1, args.2, args.3, args.4, 15.0);
        assert_eq!(aligned, SimTime::from_whole_units(10).into());
        assert_eq!(aligned, aligned_naive);
    }

    #[test]
    fn cyclic_crossing_skips_periods() {
        // Net +0.25 per 2-unit period (dyadic, so both paths are exact):
        // the level first exceeds 50 inside the rising half of period 195,
        // at t = 391. The period-skip path must agree with the naive scan.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.25, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let horizon = SimTime::from_whole_units(5000);
        let fast = f.first_accumulation_crossing(SimTime::ZERO, horizon, 0.0, 0.0, 100.0, 50.0);
        let naive =
            f.first_accumulation_crossing_naive(SimTime::ZERO, horizon, 0.0, 0.0, 100.0, 50.0);
        assert_eq!(fast, naive);
        assert_eq!(fast, Some(SimTime::from_whole_units(391)));
    }

    #[test]
    fn cyclic_crossing_detects_periodic_steady_state() {
        // Zero net drift and a target outside the excursion: the fixed
        // point of the period map proves unreachability after one period.
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(2),
            ],
            vec![1.0, -1.0],
            Extension::Cycle,
        )
        .unwrap();
        let horizon = SimTime::from_whole_units(1_000_000);
        let fast = f.first_accumulation_crossing(SimTime::ZERO, horizon, 2.0, 0.0, 10.0, 8.0);
        assert_eq!(fast, None);
    }

    /// Deterministic xorshift so grid-parity probes need no external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn grid_profile(seed: u64, n: usize, extension: Extension) -> PiecewiseConstant {
        let mut s = seed.max(1);
        let samples: Vec<f64> = (0..n)
            .map(|_| (xorshift(&mut s) % 1000) as f64 / 137.0 - 1.5)
            .collect();
        PiecewiseConstant::from_samples(
            SimTime::from_whole_units(-3),
            SimDuration::from_units(0.75),
            samples,
            extension,
        )
        .unwrap()
    }

    /// `f` with one more segment, one tick wider than the grid step and
    /// holding `f`'s last value: non-uniform, so every lookup gallops,
    /// yet identical to `f` on `f`'s domain, with the same value range
    /// (so crossing queries pick the same solver tier).
    fn galloping_twin(f: &PiecewiseConstant) -> PiecewiseConstant {
        let mut breakpoints = f.breakpoints.clone();
        let mut values = f.values.clone();
        breakpoints.push(f.domain_end() + SimDuration::from_ticks(f.uniform_dt + 1));
        values.push(values[values.len() - 1]);
        let twin = PiecewiseConstant::new(breakpoints, values, f.extension).unwrap();
        assert_eq!(twin.uniform_dt, 0, "the twin must take the galloping path");
        twin
    }

    /// A uniform in-domain instant of `f`, from raw random bits.
    fn in_domain(f: &PiecewiseConstant, bits: u64) -> SimTime {
        let span = (f.domain_end() - f.domain_start()).as_ticks() as u64;
        f.domain_start() + SimDuration::from_ticks((bits % span) as i64)
    }

    #[test]
    fn uniform_grid_detection() {
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
            assert_ne!(grid_profile(7, 40, ext).uniform_dt, 0, "{ext:?}");
        }
        assert_ne!(sample_fn().uniform_dt, 0, "gaps 10, 10, 10 are uniform");
        let g = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(1),
                SimTime::from_whole_units(3),
            ],
            vec![1.0, 2.0],
            Extension::Hold,
        )
        .unwrap();
        assert_eq!(g.uniform_dt, 0);
        assert_eq!(g.inv_dt, 0.0);
    }

    /// The division lookup on a uniform grid answers exactly what the
    /// galloping search and a plain breakpoint scan answer, bit for bit,
    /// and the prefix integral stays within rounding of the
    /// segment-walk reference.
    #[test]
    fn uniform_lookups_bit_identical() {
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
            for seed in 1..6u64 {
                let f = grid_profile(seed, 64, ext);
                let twin = galloping_twin(&f);
                let mut cur = f.cursor();
                let mut s = seed.wrapping_mul(0x9E37_79B9).max(1);
                for _ in 0..400 {
                    let t = in_domain(&f, xorshift(&mut s));
                    let idx = f.breakpoints.iter().rposition(|&b| b <= t).unwrap();
                    assert_eq!(f.value_at(t).to_bits(), f.values[idx].to_bits());
                    assert_eq!(f.value_at(t).to_bits(), twin.value_at(t).to_bits());
                    assert_eq!(
                        f.next_breakpoint_after(t),
                        Some(f.breakpoints[idx + 1]),
                        "breakpoint after {t}"
                    );
                    assert_eq!(f.next_breakpoint_after(t), twin.next_breakpoint_after(t));
                    let t2 = t.max(in_domain(&f, xorshift(&mut s)));
                    let fast = f.integrate(t, t2);
                    assert_eq!(
                        fast.to_bits(),
                        twin.integrate(t, t2).to_bits(),
                        "integral over [{t}, {t2})"
                    );
                    assert_eq!(fast.to_bits(), f.integrate_with(&mut cur, t, t2).to_bits());
                    let naive = f.integrate_naive(t, t2);
                    assert!(
                        (fast - naive).abs() < 1e-9 * (1.0 + naive.abs()),
                        "{ext:?} [{t}, {t2}): prefix {fast} vs naive {naive}"
                    );
                    let segs: Vec<_> = f.segments_between(t, t2).collect();
                    let twin_segs: Vec<_> = twin.segments_between(t, t2).collect();
                    assert_eq!(segs, twin_segs, "segments over [{t}, {t2})");
                }
            }
        }
    }

    /// Crossing solves on a uniform grid match the galloping path
    /// exactly, and the whole-window scan reference up to the one tick
    /// the solver tiers may round differently.
    #[test]
    fn uniform_crossings_match_gallop_and_naive() {
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
            for seed in 1..6u64 {
                let f = grid_profile(seed, 48, ext);
                let twin = galloping_twin(&f);
                let mut s = seed.wrapping_mul(0xA076_1D64).max(1);
                let cap = 25.0;
                for _ in 0..200 {
                    let (a, b) = (
                        in_domain(&f, xorshift(&mut s)),
                        in_domain(&f, xorshift(&mut s)),
                    );
                    let (from, horizon) = (a.min(b), a.max(b));
                    let initial = (xorshift(&mut s) % 1000) as f64 / 999.0 * cap;
                    let target = (xorshift(&mut s) % 1000) as f64 / 999.0 * cap;
                    let offset = (xorshift(&mut s) % 1000) as f64 / 137.0 - 3.5;
                    let got =
                        f.first_accumulation_crossing(from, horizon, initial, offset, cap, target);
                    let naive = f.first_accumulation_crossing_naive(
                        from, horizon, initial, offset, cap, target,
                    );
                    let what = format!(
                        "{ext:?} crossing from {from} to {horizon}, {initial}->{target} \
                         offset {offset}"
                    );
                    // The cyclic scanner skips whole periods, and the
                    // twin's period is longer, so only the non-cyclic
                    // solves are comparable across the two profiles.
                    if ext != Extension::Cycle {
                        let want = twin.first_accumulation_crossing(
                            from, horizon, initial, offset, cap, target,
                        );
                        assert_eq!(got, want, "{what}");
                    }
                    match (got, naive) {
                        (Some(g), Some(n)) => {
                            assert!(
                                (g.as_ticks() - n.as_ticks()).abs() <= 1,
                                "{what}: {g} vs {n}"
                            )
                        }
                        (None, None) => {}
                        (Some(t), None) | (None, Some(t)) => assert!(
                            horizon.as_ticks() - t.as_ticks() <= 1,
                            "{what}: only one path found {t}"
                        ),
                    }
                }
            }
        }
    }

    /// A segment walk carries its index across breakpoints, period
    /// wraps and a `Hold`/`Zero` lead-in: it looks a segment up at most
    /// once per window, and yields exactly the point lookups' segments.
    #[test]
    fn segment_walk_locates_once_per_window() {
        for ext in [Extension::Hold, Extension::Zero, Extension::Cycle] {
            let f = grid_profile(3, 16, ext);
            let (t1, t2) = (
                SimTime::from_whole_units(-20),
                SimTime::from_whole_units(40),
            );
            let mut segs = f.segments_between(t1, t2);
            let walked: Vec<_> = segs.by_ref().collect();
            let stats = segs.state().stats();
            // A `Hold`/`Zero` walk that starts before the domain enters
            // it at segment 0 and needs no lookup at all.
            assert!(stats.locates <= 1, "{ext:?}: {stats:?}");
            let mut t = t1;
            for seg in &walked {
                assert_eq!(seg.start, t);
                assert_eq!(
                    seg.value.to_bits(),
                    f.value_at(t).to_bits(),
                    "{ext:?} at {t}"
                );
                let next = f.next_breakpoint_after(t).unwrap_or(SimTime::MAX);
                assert_eq!(seg.end, next.min(t2), "{ext:?} at {t}");
                t = seg.end;
            }
            assert_eq!(t, t2);
        }
    }

    #[test]
    fn serde_round_trip_rebuilds_prefix_table() {
        let f = PiecewiseConstant::new(
            vec![
                SimTime::ZERO,
                SimTime::from_whole_units(4),
                SimTime::from_whole_units(9),
            ],
            vec![1.25, -0.5],
            Extension::Cycle,
        )
        .unwrap();
        let back = PiecewiseConstant::from_value(&f.to_value()).unwrap();
        assert_eq!(back, f);
        let (a, b) = (SimTime::from_units(-3.5), SimTime::from_units(21.0));
        assert_eq!(back.integrate(a, b), f.integrate(a, b));
    }

    #[test]
    fn serde_rejects_invalid_profiles() {
        let f = sample_fn();
        let mut v = f.to_value();
        if let serde::Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "values" {
                    *val = serde::Value::Seq(vec![]);
                }
            }
        }
        assert!(PiecewiseConstant::from_value(&v).is_err());
    }
}
