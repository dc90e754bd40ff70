//! Property-based tests of the simulation-kernel primitives.

use harvest_sim::event::EventQueue;
use harvest_sim::piecewise::{Extension, PiecewiseConstant};
use harvest_sim::stats::RunningStats;
use harvest_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn extension_strategy() -> impl Strategy<Value = Extension> {
    prop_oneof![
        Just(Extension::Hold),
        Just(Extension::Zero),
        Just(Extension::Cycle)
    ]
}

fn non_cyclic_extension() -> impl Strategy<Value = Extension> {
    prop_oneof![Just(Extension::Hold), Just(Extension::Zero)]
}

/// Profiles over values drawn from `lo..hi`, in two shapes: equally
/// spaced samples (the uniform grid, whose lookups are one division)
/// and random increasing breakpoints (which take the galloping cursor
/// search). Both start at a random, possibly negative, instant.
fn profiles_over(lo: f64, hi: f64) -> impl Strategy<Value = PiecewiseConstant> {
    profiles_with(lo, hi, extension_strategy)
}

/// [`profiles_over`] with the extension rules drawn from `extensions`.
fn profiles_with<E: Strategy<Value = Extension> + 'static>(
    lo: f64,
    hi: f64,
    extensions: fn() -> E,
) -> impl Strategy<Value = PiecewiseConstant> {
    let uniform = (
        proptest::collection::vec(lo..hi, 1..40),
        1i64..5,
        -30i64..30,
        extensions(),
    )
        .prop_map(|(values, dt, start, ext)| {
            PiecewiseConstant::from_samples(
                SimTime::from_whole_units(start),
                SimDuration::from_whole_units(dt),
                values,
                ext,
            )
            .expect("valid grid")
        });
    let non_uniform = (
        proptest::collection::vec((lo..hi, 0.05f64..6.0), 2..40),
        -30.0f64..30.0,
        extensions(),
    )
        .prop_map(|(pieces, start, ext)| {
            let mut t = SimTime::from_units(start);
            let mut breakpoints = vec![t];
            for &(_, width) in &pieces {
                t += SimDuration::from_units(width);
                breakpoints.push(t);
            }
            let values = pieces.iter().map(|&(v, _)| v).collect();
            PiecewiseConstant::new(breakpoints, values, ext).expect("increasing breakpoints")
        });
    prop_oneof![uniform, non_uniform]
}

fn profile_strategy() -> impl Strategy<Value = PiecewiseConstant> {
    profiles_over(0.0, 10.0)
}

/// Like [`profile_strategy`], but with sign-changing values, so the
/// prefix-vs-naive parity properties also exercise profiles whose
/// integral is non-monotone.
fn signed_profile_strategy() -> impl Strategy<Value = PiecewiseConstant> {
    profiles_over(-6.0, 10.0)
}

proptest! {
    /// ∫[a,c) = ∫[a,b) + ∫[b,c) for any a ≤ b ≤ c.
    #[test]
    fn integral_is_additive(
        profile in profile_strategy(),
        raw in proptest::collection::vec(-50.0f64..250.0, 3),
    ) {
        let mut ts: Vec<SimTime> = raw.iter().map(|&u| SimTime::from_units(u)).collect();
        ts.sort();
        let (a, b, c) = (ts[0], ts[1], ts[2]);
        let whole = profile.integrate(a, c);
        let split = profile.integrate(a, b) + profile.integrate(b, c);
        prop_assert!((whole - split).abs() < 1e-9 * (1.0 + whole.abs()),
            "{whole} vs {split}");
    }

    /// The integral over a window is bounded by min/max value times the
    /// window length (non-negative profiles).
    #[test]
    fn integral_respects_bounds(
        profile in profile_strategy(),
        a in 0.0f64..100.0,
        len in 0.0f64..100.0,
    ) {
        let t1 = SimTime::from_units(a);
        let t2 = SimTime::from_units(a + len);
        let e = profile.integrate(t1, t2);
        let span = (t2 - t1).as_units();
        // Extension::Zero can only push the effective min to 0.
        let hi = profile.domain_max() * span;
        prop_assert!(e >= -1e-9, "integral {e} of a non-negative profile");
        prop_assert!(e <= hi + 1e-9, "integral {e} above max bound {hi}");
    }

    /// Segments returned over a window tile it exactly and agree with
    /// point lookups.
    #[test]
    fn segments_tile_window(
        profile in profile_strategy(),
        a in -20.0f64..150.0,
        len in 0.01f64..120.0,
    ) {
        let t1 = SimTime::from_units(a);
        let t2 = SimTime::from_units(a + len);
        let segs: Vec<_> = profile.segments_between(t1, t2).collect();
        prop_assert!(!segs.is_empty());
        prop_assert_eq!(segs.first().unwrap().start, t1);
        prop_assert_eq!(segs.last().unwrap().end, t2);
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "gap in tiling");
        }
        for seg in &segs {
            prop_assert_eq!(profile.value_at(seg.start), seg.value);
        }
    }

    /// The event queue pops in (time, insertion) order regardless of
    /// the push order.
    #[test]
    fn event_queue_is_stable_priority_queue(
        times in proptest::collection::vec(0i64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ticks(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn event_queue_cancellation(
        n in 1usize..100,
        cancel_mask in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..n)
            .map(|i| q.schedule(SimTime::from_ticks(i as i64 % 17), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i] {
                q.cancel(*id);
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// Welford merge equals sequential accumulation on arbitrary splits.
    #[test]
    fn running_stats_merge_any_split(
        data in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let (a, b) = data.split_at(split);
        let mut left: RunningStats = a.iter().copied().collect();
        let right: RunningStats = b.iter().copied().collect();
        left.merge(&right);
        let all: RunningStats = data.iter().copied().collect();
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
        let (v1, v2) = (left.population_variance(), all.population_variance());
        prop_assert!((v1 - v2).abs() <= 1e-6 * (1.0 + v2.abs()), "{v1} vs {v2}");
    }

    /// Accumulation crossing returns an instant at which stepping the
    /// level manually lands on the target (within tick rounding).
    #[test]
    fn accumulation_crossing_is_consistent(
        profile in profile_strategy(),
        initial_frac in 0.0f64..1.0,
        offset in -5.0f64..2.0,
        target_frac in 0.0f64..1.0,
    ) {
        let cap = 40.0;
        let initial = initial_frac * cap;
        let target = target_frac * cap;
        let horizon = SimTime::from_whole_units(500);
        if let Some(t) = profile.first_accumulation_crossing(
            SimTime::ZERO, horizon, initial, offset, cap, target,
        ) {
            prop_assert!(t >= SimTime::ZERO && t <= horizon);
            // Re-simulate the clamped accumulation up to t.
            let mut level = initial;
            for seg in profile.segments_between(SimTime::ZERO, t) {
                let rate = seg.value + offset;
                // Clamped linear evolution within the segment.
                let mut remaining = seg.duration().as_units();
                while remaining > 0.0 {
                    if (level <= 0.0 && rate < 0.0) || (level >= cap && rate > 0.0) {
                        break;
                    }
                    let until_clamp = if rate > 0.0 {
                        (cap - level) / rate
                    } else if rate < 0.0 {
                        level / -rate
                    } else {
                        f64::INFINITY
                    };
                    let step = remaining.min(until_clamp);
                    if step <= 0.0 { break; }
                    level = (level + rate * step).clamp(0.0, cap);
                    remaining -= step;
                }
            }
            // Tick rounding can overshoot by at most one tick of rate.
            let max_rate = profile.domain_max() + offset.abs() + 1.0;
            prop_assert!((level - target).abs() <= 2.0 * max_rate / 1e6 + 1e-9,
                "level {level} vs target {target} at {t}");
        }
    }

    /// The prefix-sum `integrate` agrees with the segment-walk baseline
    /// on arbitrary windows, including reversed (`t2 < t1`) and
    /// out-of-domain ones, under all three extension rules.
    #[test]
    fn prefix_integrate_matches_segment_walk(
        profile in signed_profile_strategy(),
        a in -80.0f64..300.0,
        b in -80.0f64..300.0,
    ) {
        let t1 = SimTime::from_units(a);
        let t2 = SimTime::from_units(b);
        let fast = profile.integrate(t1, t2);
        let naive = profile.integrate_naive(t1, t2);
        let scale = 1.0 + naive.abs() + (b - a).abs();
        prop_assert!((fast - naive).abs() < 1e-9 * scale,
            "prefix {fast} vs naive {naive} over [{a}, {b})");
    }

    /// Cursor-threaded queries return exactly what cold queries return,
    /// for any (not necessarily monotone) sequence of query times — the
    /// cursor is a pure accelerator.
    #[test]
    fn cursor_queries_match_cold_queries(
        profile in signed_profile_strategy(),
        times in proptest::collection::vec(-60.0f64..250.0, 1..30),
    ) {
        let mut cur = profile.cursor();
        for (i, &u) in times.iter().enumerate() {
            let t = SimTime::from_units(u);
            prop_assert_eq!(profile.value_at_with(&mut cur, t), profile.value_at(t),
                "value_at diverged at query {i} (t = {u})");
            let t2 = SimTime::from_units(u + 7.5);
            let threaded = profile.integrate_with(&mut cur, t, t2);
            let cold = profile.integrate(t, t2);
            prop_assert_eq!(threaded, cold,
                "integrate diverged at query {i} (t = {u})");
        }
    }

    /// The tiered crossing solver (O(1) reject / monotone bisection /
    /// clamped scan with period skipping) agrees with the plain
    /// whole-window scan: same reachability verdict and, when reached,
    /// the same instant up to one tick.
    #[test]
    fn crossing_fast_path_matches_naive(
        profile in signed_profile_strategy(),
        initial_frac in 0.0f64..1.0,
        offset in -5.0f64..3.0,
        target_frac in 0.0f64..1.0,
        horizon_units in 1i64..400,
    ) {
        let cap = 30.0;
        let initial = initial_frac * cap;
        let target = target_frac * cap;
        let horizon = SimTime::from_whole_units(horizon_units);
        let fast = profile.first_accumulation_crossing(
            SimTime::ZERO, horizon, initial, offset, cap, target,
        );
        let naive = profile.first_accumulation_crossing_naive(
            SimTime::ZERO, horizon, initial, offset, cap, target,
        );
        match (fast, naive) {
            (Some(f), Some(n)) => {
                let diff = (f.as_ticks() - n.as_ticks()).abs();
                prop_assert!(diff <= 1, "fast {f} vs naive {n}");
            }
            (None, None) => {}
            // A crossing right at the horizon may round across it in one
            // path and not the other; anything else is a real divergence.
            (Some(f), None) => prop_assert!(
                horizon.as_ticks() - f.as_ticks() <= 1,
                "fast found {f}, naive found nothing before {horizon}"
            ),
            (None, Some(n)) => prop_assert!(
                horizon.as_ticks() - n.as_ticks() <= 1,
                "naive found {n}, fast found nothing before {horizon}"
            ),
        }
    }

    /// Window-bound rejection: in the non-monotone regime on `Hold` and
    /// `Zero` profiles the solver either scans the window or answers
    /// `None` from the rate bounds, so a target drawn within a few
    /// margins of the band edge `initial + rate·span` (`rate_min`
    /// falling, `rate_max` rising) gets exactly the whole-window scan's
    /// answer. Half the windows start at a segment holding the extreme
    /// rate, so the edge is actually reached and both verdicts occur.
    #[test]
    fn window_bound_rejection_matches_naive(
        profile in profiles_with(-6.0, 10.0, non_cyclic_extension),
        offset in -5.0f64..3.0,
        initial_frac in 0.05f64..0.95,
        from_units in -40.0f64..80.0,
        reach_frac in 0.0f64..1.0,
        margins in -4i64..5,
        fine in any::<bool>(),
        upward in any::<bool>(),
        anchored in any::<bool>(),
    ) {
        let cap = 30.0;
        let (lo, hi) = match profile.extension() {
            Extension::Zero => (profile.domain_min().min(0.0), profile.domain_max().max(0.0)),
            _ => (profile.domain_min(), profile.domain_max()),
        };
        let (rate_min, rate_max) = (lo + offset, hi + offset);
        if !(rate_min < 0.0 && rate_max > 0.0) {
            // Monotone or rejected on the rate's sign: other tiers.
            return Ok(());
        }
        let initial = initial_frac * cap;
        let (rate, room) = if upward {
            (rate_max, cap - initial)
        } else {
            (rate_min, initial)
        };
        let mut from = SimTime::from_units(from_units);
        if anchored {
            let extreme = if upward { hi } else { lo };
            let start = profile.domain_start();
            if let Some(seg) = profile
                .segments_between(start, profile.domain_end())
                .find(|s| s.value == extreme)
            {
                from = seg.start;
            }
        }
        // A window over which the rate bound moves the level
        // `reach_frac` of the way to the floor or the cap.
        let span_units = reach_frac * room / rate.abs();
        let horizon = from + SimDuration::from_units_ceil(span_units).max(SimDuration::TICK);
        let edge = initial + rate * (horizon - from).as_units();
        // Steps of the rejection margin, or of the scan's 1e-15
        // tolerance, which the margin must cover.
        let step = if fine { 1e-15 } else { 1e-9 * (1.0 + cap) };
        let target = (edge + margins as f64 * step).clamp(0.0, cap);
        let fast = profile.first_accumulation_crossing(from, horizon, initial, offset, cap, target);
        let naive =
            profile.first_accumulation_crossing_naive(from, horizon, initial, offset, cap, target);
        prop_assert_eq!(fast, naive,
            "{initial} -> {target} over [{from}, {horizon}), edge {edge}, offset {offset}");
    }

    /// Zero-offset rise inside the domain (the stall recharge at idle
    /// power 0): the answer is the earliest tick whose accumulated
    /// integral reaches the need within the solver's 1e-15 tolerance,
    /// and `None` only when the whole window falls short.
    #[test]
    fn zero_offset_stall_solve_is_earliest_tick(
        profile in profile_strategy(),
        from_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
        initial in 0.0f64..100.0,
        need_frac in 0.0f64..1.2,
        on_tick in any::<bool>(),
        jitter in -3i64..4,
    ) {
        let cap = 1e6;
        let (start, end) = (profile.domain_start(), profile.domain_end());
        let from = start
            + SimDuration::from_ticks(((end - start).as_ticks() as f64 * from_frac) as i64);
        let horizon =
            from + SimDuration::from_ticks(((end - from).as_ticks() as f64 * len_frac) as i64);
        if horizon <= from {
            return Ok(());
        }
        // Either a fraction of the window's harvest, or the harvest up to
        // a tick give or take a few tolerances, where an estimate that
        // is off by one tick would show.
        let gain = if on_tick {
            let ticks = ((horizon - from).as_ticks() as f64 * need_frac.min(1.0)) as i64;
            profile.integrate(from, from + SimDuration::from_ticks(ticks)) + jitter as f64 * 1e-15
        } else {
            need_frac * profile.integrate(from, horizon)
        };
        let target = initial + gain.max(0.0);
        let need = target - initial;
        let got = profile.first_accumulation_crossing(from, horizon, initial, 0.0, cap, target);
        match got {
            Some(t) => {
                prop_assert!(t >= from && t <= horizon, "{t} outside [{from}, {horizon}]");
                prop_assert!(profile.integrate(from, t) >= need - 1e-15,
                    "need {need} not reached at {t}");
                let prev = t - SimDuration::TICK;
                if t > from && prev != from {
                    prop_assert!(profile.integrate(from, prev) < need - 1e-15,
                        "need {need} already reached at {prev}, one tick before {t}");
                }
            }
            None => prop_assert!(profile.integrate(from, horizon) < need - 1e-15,
                "need {need} reachable by {horizon} but no crossing found"),
        }
    }

    /// Threading a cursor through the crossing solver does not change
    /// its answer.
    #[test]
    fn cursor_threaded_crossing_matches_cold(
        profile in signed_profile_strategy(),
        starts in proptest::collection::vec(0.0f64..120.0, 1..8),
        offset in -5.0f64..3.0,
        target_frac in 0.0f64..1.0,
    ) {
        let cap = 30.0;
        let initial = 0.5 * cap;
        let target = target_frac * cap;
        let mut cur = profile.cursor();
        let mut starts = starts;
        starts.sort_by(f64::total_cmp);
        for &s in &starts {
            let from = SimTime::from_units(s);
            let horizon = from + SimDuration::from_whole_units(150);
            let threaded = profile.first_accumulation_crossing_with(
                &mut cur, from, horizon, initial, offset, cap, target,
            );
            let cold = profile.first_accumulation_crossing(
                from, horizon, initial, offset, cap, target,
            );
            prop_assert_eq!(threaded, cold, "diverged for window starting at {}", s);
        }
    }
}
