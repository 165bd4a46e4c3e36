//! Per-window component state vectors and the run history.

use nf_types::Nanos;

/// The monitored variables of one component, one slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// CPU utilisation in [0, 1].
    CpuUtil = 0,
    /// Input packet rate (pps).
    InputRate = 1,
    /// Output/processing rate (pps).
    OutputRate = 2,
    /// Mean queue occupancy (packets).
    QueueLen = 3,
    /// Packets dropped in the window.
    Drops = 4,
}

/// Number of metrics per component.
pub const METRIC_COUNT: usize = 5;

/// One component's state in one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentState {
    /// Metric values, indexed by [`Metric`].
    pub values: [f64; METRIC_COUNT],
}

impl Default for ComponentState {
    fn default() -> Self {
        Self {
            values: [0.0; METRIC_COUNT],
        }
    }
}

impl ComponentState {
    /// Sets one metric (builder style).
    pub fn with(mut self, m: Metric, v: f64) -> Self {
        self.values[m as usize] = v;
        self
    }

    /// Reads one metric.
    pub fn get(&self, m: Metric) -> f64 {
        self.values[m as usize]
    }
}

/// The full history of a run: `states[window][component]`.
#[derive(Debug, Clone)]
pub struct History {
    /// Window length in nanoseconds.
    pub window_ns: Nanos,
    /// Per window, per component state.
    pub states: Vec<Vec<ComponentState>>,
    /// Per-component per-metric value ranges (for normalised similarity).
    ranges: Vec<[(f64, f64); METRIC_COUNT]>,
}

impl History {
    /// Builds a history from raw per-window states.
    pub fn new(window_ns: Nanos, states: Vec<Vec<ComponentState>>) -> Self {
        assert!(window_ns > 0, "window must be positive");
        let n_comp = states.first().map_or(0, |w| w.len());
        assert!(
            states.iter().all(|w| w.len() == n_comp),
            "ragged state matrix"
        );
        let mut ranges = vec![[(f64::INFINITY, f64::NEG_INFINITY); METRIC_COUNT]; n_comp];
        for w in &states {
            for (c, s) in w.iter().enumerate() {
                for (m, &v) in s.values.iter().enumerate() {
                    ranges[c][m].0 = ranges[c][m].0.min(v);
                    ranges[c][m].1 = ranges[c][m].1.max(v);
                }
            }
        }
        Self {
            window_ns,
            states,
            ranges,
        }
    }

    /// Number of windows.
    pub fn windows(&self) -> usize {
        self.states.len()
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.states.first().map_or(0, |w| w.len())
    }

    /// The window index containing time `t` (clamped to the last window).
    pub fn window_of(&self, t: Nanos) -> usize {
        ((t / self.window_ns) as usize).min(self.windows().saturating_sub(1))
    }

    /// NetMedic state similarity of component `c` between windows `a` and
    /// `b`: `1 − mean_i(|x_i − y_i| / range_i)`, in [0, 1].
    pub fn similarity(&self, c: usize, a: usize, b: usize) -> f64 {
        let sa = &self.states[a][c];
        let sb = &self.states[b][c];
        let mut acc = 0.0;
        for m in 0..METRIC_COUNT {
            let (lo, hi) = self.ranges[c][m];
            let range = (hi - lo).max(f64::EPSILON);
            acc += (sa.values[m] - sb.values[m]).abs() / range;
        }
        (1.0 - acc / METRIC_COUNT as f64).clamp(0.0, 1.0)
    }

    /// Abnormality of component `c` in window `w`: the largest normalised
    /// deviation of any metric from its median over the whole history.
    pub fn abnormality(&self, c: usize, w: usize) -> f64 {
        let mut worst: f64 = 0.0;
        for m in 0..METRIC_COUNT {
            let (lo, hi) = self.ranges[c][m];
            let range = (hi - lo).max(f64::EPSILON);
            let mut vals: Vec<f64> = self.states.iter().map(|win| win[c].values[m]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
            let median = vals[vals.len() / 2];
            let dev = (self.states[w][c].values[m] - median).abs() / range;
            worst = worst.max(dev);
        }
        worst.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> History {
        // 1 component, 5 windows: queue length spikes in window 3.
        let states = (0..5)
            .map(|w| {
                vec![ComponentState::default()
                    .with(Metric::QueueLen, if w == 3 { 100.0 } else { 1.0 })
                    .with(Metric::InputRate, 50.0)]
            })
            .collect();
        History::new(1_000_000, states)
    }

    #[test]
    fn window_of_maps_and_clamps() {
        let h = hist();
        assert_eq!(h.window_of(0), 0);
        assert_eq!(h.window_of(3_500_000), 3);
        assert_eq!(h.window_of(99_000_000), 4);
    }

    #[test]
    fn similarity_is_one_for_identical_states() {
        let h = hist();
        assert!((h.similarity(0, 0, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_drops_for_the_spike_window() {
        let h = hist();
        assert!(h.similarity(0, 0, 3) < 0.9);
    }

    #[test]
    fn abnormality_flags_the_spike() {
        let h = hist();
        assert!(h.abnormality(0, 3) > 0.9);
        assert!(h.abnormality(0, 1) < 0.1);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_rejected() {
        History::new(1_000, vec![vec![ComponentState::default()], vec![]]);
    }
}
