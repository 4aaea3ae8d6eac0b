//! Study: which strategies win the NWS tournament on the simulated load.
//!
//! The paper's load inputs are whatever the NWS tournament picks, so a
//! strategy earns its place in the ensemble by winning forecasts. This
//! study polls every CPU lane and the bandwidth lane of Platforms 1 and
//! 2 at the service's 5 s cadence over a 4 h day, drives the tournament
//! (`AdaptiveForecaster::observe`, the step a sensor takes) one sample at
//! a time, and after each poll reads who leads. Per strategy it reports
//! the share of polls it wins from t >= 300 s (the warm-up the offline
//! experiments skip) and from t >= 1 800 s, and its counterfactual: the
//! mean |winner - runner-up| of the standing forecasts over the polls it
//! wins from t >= 300 s, i.e. how far the served forecast would move
//! without it.
//!
//! The simulated processes are AR(1) levels, Markov mode switches and
//! contention bursts, which favour persistence and smoothing by
//! construction; what wins here need not win on a real host.

use prodpred_core::report::{f, render_table};
use prodpred_nws::{AdaptiveForecaster, Scoreboard};
use prodpred_simgrid::{Platform, Trace};

const SEEDS: u64 = 64;
const HORIZON: f64 = 4.0 * 3600.0;
const INTERVAL: f64 = 5.0;
/// Where the two win shares start counting, seconds.
const FROM: [f64; 2] = [300.0, 1800.0];

/// One lane kind's tally over a platform's seeds.
struct Tally {
    lanes: usize,
    /// Polls counted from each of `FROM`.
    polls: [usize; 2],
    /// Per strategy, the polls it won from each of `FROM`.
    wins: Vec<[usize; 2]>,
    /// Per strategy, |winner - runner-up| summed over its wins from `FROM[0]`.
    gap: Vec<f64>,
}

impl Tally {
    fn new(strategies: usize) -> Self {
        Self {
            lanes: 0,
            polls: [0; 2],
            wins: vec![[0; 2]; strategies],
            gap: vec![0.0; strategies],
        }
    }

    /// Polls `trace` over the day and scores every poll from `FROM[0]` on.
    fn lane(&mut self, ensemble: &AdaptiveForecaster, trace: &Trace) {
        self.lanes += 1;
        let mut board = Scoreboard::default();
        let mut history = Vec::new();
        let mut t = 0.0;
        while t <= HORIZON {
            history.push(trace.at(t));
            ensemble.observe(&mut board, &history);
            if let Some(best) = board.best().filter(|_| t >= FROM[0]) {
                let runner_up = board
                    .standings()
                    .filter(|&(i, _, _)| i != best.winner)
                    .fold(None, |lead, lane| match lead {
                        Some((_, b, _)) if lane.1 >= b => lead,
                        _ => Some(lane),
                    });
                if let Some((_, _, Some(second))) = runner_up {
                    self.gap[best.winner] += (best.value - second).abs();
                }
                for (k, &from) in FROM.iter().enumerate() {
                    if t >= from {
                        self.polls[k] += 1;
                        self.wins[best.winner][k] += 1;
                    }
                }
            }
            t += INTERVAL;
        }
    }

    fn add(&mut self, other: &Tally) {
        self.lanes += other.lanes;
        for k in 0..FROM.len() {
            self.polls[k] += other.polls[k];
        }
        for (mine, theirs) in self.wins.iter_mut().zip(&other.wins) {
            for k in 0..FROM.len() {
                mine[k] += theirs[k];
            }
        }
        for (mine, theirs) in self.gap.iter_mut().zip(&other.gap) {
            *mine += theirs;
        }
    }

    fn rows(&self, names: &[&str]) -> Vec<Vec<String>> {
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let [early, late] = self.wins[i];
                let share = |wins: usize, k: usize| f(100.0 * wins as f64 / self.polls[k] as f64, 2);
                let gap = if early == 0 {
                    "-".to_string()
                } else {
                    f(self.gap[i] / early as f64, 5)
                };
                vec![format!("{i} {name}"), share(early, 0), share(late, 1), gap]
            })
            .collect()
    }
}

/// Every CPU lane's tally and the bandwidth lane's, for one platform.
fn day(platform: &Platform) -> [Tally; 2] {
    let ensemble = &AdaptiveForecaster::standard();
    let n = ensemble.strategies().len();
    let mut cpu = Tally::new(n);
    for machine in &platform.machines {
        cpu.lane(ensemble, &machine.load);
    }
    let mut bandwidth = Tally::new(n);
    bandwidth.lane(ensemble, &platform.network.avail);
    [cpu, bandwidth]
}

pub fn run() {
    println!(
        "== Study: NWS tournament winners ({SEEDS} seeds a platform, {} h at {INTERVAL} s polls) ==\n",
        HORIZON / 3600.0
    );
    let names = AdaptiveForecaster::standard().names();
    let platforms = ["Platform 1", "Platform 2"];
    let items: Vec<(usize, u64)> = (0..platforms.len())
        .flat_map(|p| (1..=SEEDS).map(move |seed| (p, seed)))
        .collect();
    let days = prodpred_pool::parallel_map(&items, 0, |_, &(p, seed)| {
        let generate = [Platform::platform1, Platform::platform2][p];
        day(&generate(seed, HORIZON))
    });
    for (p, platform) in platforms.iter().enumerate() {
        let mut totals = [Tally::new(names.len()), Tally::new(names.len())];
        for (&(q, _), tallies) in items.iter().zip(&days) {
            if q == p {
                for (total, tally) in totals.iter_mut().zip(tallies) {
                    total.add(tally);
                }
            }
        }
        for (lane, total) in ["CPU", "bandwidth"].iter().zip(&totals) {
            println!("{platform}, {lane} ({} lanes)", total.lanes);
            println!(
                "{}",
                render_table(
                    &[
                        "strategy",
                        "wins t>=300 s %",
                        "wins t>=1800 s %",
                        "mean gap to runner-up"
                    ],
                    &total.rows(&names)
                )
            );
        }
    }
    println!(
        "Strategies are listed in ensemble order (exp-smoothing by rising\n\
         gain). The gap is the mean |winner - runner-up| of the standing\n\
         forecasts, in availability, over the polls a strategy wins from\n\
         t >= 300 s ('-' where it wins none). The simulated loads favour\n\
         persistence and smoothing by construction."
    );
}
