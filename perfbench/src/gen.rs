//! Seeded query generation. The workload seed is the only source of
//! variation: the same seed gives the same query lists, and the
//! program under test only ever sees the generated queries.
//!
//! Every mix fixes *how many* queries of each class a pass holds and
//! lets the seed choose the order, the architectures and (for the
//! daemon) which catalog entries are popular. Fixed class counts keep
//! the per-pass work, and therefore the figures, steady across seeds.

use tangram::WorkloadKey;

/// The three paper architectures, in `ArchConfig::paper_archs` order.
pub const ARCHS: [&str; 3] = ["kepler", "maxwell", "pascal"];

/// SplitMix64: tiny, seedable, and good enough for shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted by `stream` so the mixes draw
    /// independent sequences from one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Split `total` draws over `ranks` Zipf(`s`) ranks by largest
/// remainder: rank 0 is the most popular, the counts sum to exactly
/// `total`, and the split is a pure function of its arguments.
pub fn zipf_counts(total: usize, ranks: usize, s: f64) -> Vec<usize> {
    if ranks == 0 {
        return Vec::new();
    }
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Which extra machinery a sweep runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Hook {
    /// A plain storeless sweep.
    Plain,
    /// `Session::sanitized(true)`: race-screen every candidate.
    Sanitize,
    /// `Session::profiled(true)`: profile the winner.
    Profile,
    /// A fault-injection campaign with a fixed fault seed.
    Fault,
}

impl Hook {
    /// Short display name.
    pub fn id(self) -> &'static str {
        match self {
            Hook::Plain => "plain",
            Hook::Sanitize => "sanitize",
            Hook::Profile => "profile",
            Hook::Fault => "fault",
        }
    }
}

/// One storeless sweep: `Session::run` of `key` at `n` on `ARCHS[arch]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepQuery {
    /// Index into [`ARCHS`].
    pub arch: usize,
    /// The workload key.
    pub key: WorkloadKey,
    /// Array size in elements.
    pub n: u64,
    /// Extra machinery.
    pub hook: Hook,
}

impl SweepQuery {
    fn new(arch: usize, key: &str, n: u64, hook: Hook) -> Self {
        let key = key.parse().expect("built-in workload keys parse");
        SweepQuery { arch, key, n, hook }
    }

    /// `arch/key@n[+hook]`, for logs and digests.
    pub fn label(&self) -> String {
        let hook = if self.hook == Hook::Plain {
            String::new()
        } else {
            format!("+{}", self.hook.id())
        };
        format!("{}/{}@{}{hook}", ARCHS[self.arch], self.key.id(), self.n)
    }
}

/// A sweep workload: a cycle of pass lists. Pass `i` of a run replays
/// `cycle[i % cycle.len()]`; the first entry is the set-up pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPlan {
    /// The pass lists.
    pub cycle: Vec<Vec<SweepQuery>>,
}

const K: u64 = 1 << 10;
const M: u64 = 1 << 20;

/// A seeded Latin assignment of architectures to `rows`: a random
/// permutation of the three, repeated, so every run of three
/// consecutive rows covers each architecture once.
fn arch_rotation(rng: &mut Rng, rows: usize) -> Vec<usize> {
    let perm = rng.permutation(3);
    (0..rows).map(|r| perm[r % 3]).collect()
}

/// `sweep-sampled`: every launch has more than 64 blocks, so each
/// simulates at most six; time goes to per-job host work. Fifteen
/// scalar sweeps at 1M–16M (each key meets each architecture once)
/// and six vector-valued sweeps at 1M (scan and segsum on every
/// architecture). The vector sweeps are 6 of 21, so p90 lands inside
/// their class and p50 inside the scalar class.
pub fn sweep_sampled(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed, 1);
    let cycle = (0..3)
        .map(|_| {
            let mut pass = Vec::new();
            for key in ["sum", "max", "argmax", "argmin", "hist256"] {
                let archs = arch_rotation(&mut rng, 3);
                for (i, n) in [M, 4 * M, 16 * M].into_iter().enumerate() {
                    pass.push(SweepQuery::new(archs[i], key, n, Hook::Plain));
                }
            }
            for key in ["scan", "segsum"] {
                for arch in 0..3 {
                    pass.push(SweepQuery::new(arch, key, M, Hook::Plain));
                }
            }
            rng.shuffle(&mut pass);
            pass
        })
        .collect();
    SweepPlan { cycle }
}

/// The golden snapshot keys at n = 16384, in three groups of similar
/// cost; pass `i` sweeps group `i % 3` on all three architectures, so
/// three consecutive passes cover every (arch, key) of both snapshots.
pub const GOLDEN_GROUPS: [[&str; 3]; 3] = [
    ["sum", "argmax", "scan"],
    ["max", "argmin", "scan-u32"],
    ["hist64", "exscan", "segsum"],
];

/// `sweep-exact`: grids of at most 64 blocks simulate every block, so
/// time goes to the interpreter. Each pass holds nine golden sweeps at
/// 16K, twelve at 4K (sum and max on all three architectures; hist64,
/// scan and segsum on two) and two at 64K. The 4K sum/max sweeps are
/// the middle class, so p50 falls inside it; p90 falls among the 16K
/// golden sweeps.
pub fn sweep_exact(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed, 2);
    let cycle = GOLDEN_GROUPS
        .iter()
        .enumerate()
        .map(|(g, group)| {
            let mut pass = Vec::new();
            for key in group {
                for arch in 0..3 {
                    pass.push(SweepQuery::new(arch, key, 16 * K, Hook::Plain));
                }
            }
            for (key, count) in [
                ("sum", 3),
                ("max", 3),
                ("hist64", 2),
                ("scan", 2),
                ("segsum", 2),
            ] {
                for arch in arch_rotation(&mut rng, count) {
                    pass.push(SweepQuery::new(arch, key, 4 * K, Hook::Plain));
                }
            }
            // The costliest sweeps rotate over the architectures with
            // the pass, so every seed runs the same 64K work.
            for (i, key) in ["sum", "segsum"].into_iter().enumerate() {
                pass.push(SweepQuery::new((g + i) % 3, key, 64 * K, Hook::Plain));
            }
            rng.shuffle(&mut pass);
            pass
        })
        .collect();
    SweepPlan { cycle }
}

/// `sweep-checked`: the hook paths (sanitizer, profiler, fault
/// campaign) at 1K–4K. Sanitized sweeps cover all ten keys at 1K and
/// seven at 4K; profiled sum sweeps run at both sizes, fault-campaign
/// sum sweeps at 1K on every architecture and once at 4K. Of 23
/// sweeps per pass, the 1K sanitized reductions are positions 10–12
/// in latency order (p50) and the 4K sanitized reductions positions
/// 19–21 (p90), below the 4K fault campaign.
pub fn sweep_checked(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed, 3);
    let cycle = (0..3)
        .map(|_| {
            let mut pass = Vec::new();
            let keys = [
                "sum", "max", "min", "argmax", "argmin", "hist64", "scan", "scan-u32", "exscan",
                "segsum",
            ];
            let archs = arch_rotation(&mut rng, keys.len());
            for (key, arch) in keys.into_iter().zip(archs) {
                pass.push(SweepQuery::new(arch, key, K, Hook::Sanitize));
            }
            let keys = ["sum", "max", "min", "argmax", "argmin", "hist64", "segsum"];
            let archs = arch_rotation(&mut rng, keys.len());
            for (key, arch) in keys.into_iter().zip(archs) {
                pass.push(SweepQuery::new(arch, key, 4 * K, Hook::Sanitize));
            }
            for (hook, n) in [
                (Hook::Profile, K),
                (Hook::Profile, 4 * K),
                (Hook::Fault, 4 * K),
            ] {
                pass.push(SweepQuery::new(rng.below(3), "sum", n, hook));
            }
            for arch in 0..3 {
                pass.push(SweepQuery::new(arch, "sum", K, Hook::Fault));
            }
            rng.shuffle(&mut pass);
            pass
        })
        .collect();
    SweepPlan { cycle }
}

/// One step of a daemon client's closed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStep {
    /// Index into [`ARCHS`].
    pub arch: usize,
    /// The workload key.
    pub key: WorkloadKey,
    /// Array size in elements.
    pub n: u64,
    /// A dedup step: wait on the pass barrier, then send, so both
    /// clients' copies of this query are in flight together.
    pub paired: bool,
}

impl ServeStep {
    /// `arch/key@n`, the reference-table key.
    pub fn label(&self) -> String {
        format!("{}/{}@{}", ARCHS[self.arch], self.key.id(), self.n)
    }
}

/// The daemon keys and the sizes each family touches. Reduce keys
/// have an anchor size (touched first, answered cold) and two sizes in
/// the adjacent buckets (answered seeded from the anchor); the other
/// keys get three cold sizes, since only reductions seed today.
const SERVE_KEYS: [(&str, [u64; 3]); 4] = [
    ("sum", [4 * M, 2 * M, 8 * M]),
    ("max", [4 * M, 2 * M, 8 * M]),
    ("argmax", [M, 4 * M, 16 * M]),
    ("hist64", [M, 4 * M, 16 * M]),
];

/// Key of the reserved dedup family (never owned by a client).
const DEDUP_KEY: &str = "argmax";
/// Fresh sizes of the dedup pairs: one pair each per pass.
const DEDUP_NS: [u64; 3] = [M, 4 * M, 16 * M];
/// Warm repeats per client per pass.
pub const WARM_PER_CLIENT: usize = 45;
/// Zipf exponent of the warm repeats.
const ZIPF_S: f64 = 1.4;

/// `serve-mixed`: the two clients' step lists for one pass.
///
/// Client `c` owns architecture `(f + c) % 3` of key family `f`, so
/// the two never share an (arch, key) family and neither can warm or
/// seed the other; the third architecture of [`DEDUP_KEY`] is reserved
/// for the barrier-forced dedup pairs. Per client and pass: 12 first
/// touches (8 cold, 4 seeded), [`WARM_PER_CLIENT`] Zipf-distributed
/// repeats of already touched entries (warm), and 3 paired steps (each
/// pair: one cold leader, one dedup follower).
///
/// Each client draws its own schedule from the seed: the first-touch
/// order and where each repeat lands. Repeat counts follow a fixed
/// popularity order (smaller n first), so the warm mix, and with it
/// the warm latencies, is the same for every seed.
pub fn serve_mixed(seed: u64) -> [Vec<ServeStep>; 2] {
    let mut rng = Rng::new(seed, 4);
    let dedup_family = SERVE_KEYS
        .iter()
        .position(|(k, _)| *k == DEDUP_KEY)
        .expect("dedup key");
    let key_of = |f: usize| -> WorkloadKey { SERVE_KEYS[f].0.parse().expect("key parses") };
    let n_of = |(f, s): (usize, usize)| SERVE_KEYS[f].1[s];
    let mut client = |c: usize| -> Vec<ServeStep> {
        // The catalog: (family, size index) entries in first-touch
        // order. Families interleave at random; each family's anchor
        // (size index 0) comes first within it.
        let mut touch_order: Vec<usize> = (0..SERVE_KEYS.len()).flat_map(|f| [f; 3]).collect();
        rng.shuffle(&mut touch_order);
        let mut next_size = [0usize; SERVE_KEYS.len()];
        let catalog: Vec<(usize, usize)> = touch_order
            .into_iter()
            .map(|f| {
                next_size[f] += 1;
                (f, next_size[f] - 1)
            })
            .collect();
        let mut by_rank: Vec<usize> = (0..catalog.len()).collect();
        by_rank.sort_by_key(|&e| (n_of(catalog[e]), catalog[e].0));
        let counts = zipf_counts(WARM_PER_CLIENT, catalog.len(), ZIPF_S);
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); catalog.len()];
        for (rank, &entry) in by_rank.iter().enumerate() {
            for _ in 0..counts[rank] {
                slots[entry + rng.below(catalog.len() - entry)].push(entry);
            }
        }
        let mut steps = Vec::new();
        for (entry, repeats) in slots.iter_mut().enumerate() {
            rng.shuffle(repeats);
            for e in std::iter::once(entry).chain(repeats.iter().copied()) {
                let (f, _) = catalog[e];
                steps.push(ServeStep {
                    arch: (f + c) % 3,
                    key: key_of(f),
                    n: n_of(catalog[e]),
                    paired: false,
                });
            }
        }
        // Paired steps at fixed fractions of the list, in the same
        // order on both clients: the k-th barrier pairs the k-th
        // paired step of each.
        let len = steps.len();
        for (j, &n) in DEDUP_NS.iter().enumerate().rev() {
            let step = ServeStep {
                arch: (dedup_family + 2) % 3,
                key: key_of(dedup_family),
                n,
                paired: true,
            };
            steps.insert(len * (j + 1) / (DEDUP_NS.len() + 1), step);
        }
        steps
    };
    let first = client(0);
    [first, client(1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zipf_counts_sum_and_decrease() {
        let c = zipf_counts(45, 12, 1.0);
        assert_eq!(c.iter().sum::<usize>(), 45);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "{c:?}");
        assert!(c[0] > 3 * c[11]);
        assert_eq!(zipf_counts(7, 0, 1.0), Vec::<usize>::new());
        assert_eq!(zipf_counts(0, 3, 1.0), vec![0, 0, 0]);
    }

    #[test]
    fn same_seed_same_lists_other_seed_other_lists() {
        assert_eq!(sweep_sampled(1), sweep_sampled(1));
        assert_ne!(sweep_sampled(1), sweep_sampled(2));
        assert_eq!(sweep_exact(5), sweep_exact(5));
        assert_ne!(sweep_exact(5), sweep_exact(6));
        assert_eq!(sweep_checked(9), sweep_checked(9));
        assert_ne!(sweep_checked(9), sweep_checked(10));
        assert_eq!(serve_mixed(3), serve_mixed(3));
        assert_ne!(serve_mixed(3), serve_mixed(4));
    }

    /// The class composition of a pass does not depend on the seed.
    #[test]
    fn pass_composition_is_seed_independent() {
        let shape = |plan: SweepPlan| -> Vec<Vec<(String, u64, Hook)>> {
            plan.cycle
                .into_iter()
                .map(|pass| {
                    let mut v: Vec<_> = pass
                        .into_iter()
                        .map(|q| (q.key.id(), q.n, q.hook))
                        .collect();
                    v.sort();
                    v
                })
                .collect()
        };
        for (a, b) in [(1, 2), (17, 99)] {
            assert_eq!(shape(sweep_sampled(a)), shape(sweep_sampled(b)));
            assert_eq!(shape(sweep_exact(a)), shape(sweep_exact(b)));
            assert_eq!(shape(sweep_checked(a)), shape(sweep_checked(b)));
        }
    }

    #[test]
    fn exact_cycle_covers_every_golden_pair() {
        let plan = sweep_exact(11);
        let golden: HashSet<(usize, String)> = plan
            .cycle
            .iter()
            .flatten()
            .filter(|q| q.n == 16 * K)
            .map(|q| (q.arch, q.key.id()))
            .collect();
        assert_eq!(golden.len(), 27);
    }

    #[test]
    fn serve_clients_own_disjoint_families() {
        for seed in [1, 2, 3, 40] {
            let [a, b] = serve_mixed(seed);
            let fam = |s: &[ServeStep]| -> HashSet<(usize, String)> {
                s.iter()
                    .filter(|st| !st.paired)
                    .map(|st| (st.arch, st.key.id()))
                    .collect()
            };
            assert!(fam(&a).is_disjoint(&fam(&b)), "seed {seed}");
            let paired: HashSet<(usize, String)> = a
                .iter()
                .chain(&b)
                .filter(|st| st.paired)
                .map(|st| (st.arch, st.key.id()))
                .collect();
            assert_eq!(paired.len(), 1, "one reserved dedup family");
            assert!(paired.is_disjoint(&fam(&a)) && paired.is_disjoint(&fam(&b)));
        }
    }

    /// The k-th paired step of each client is the same query, so the
    /// k-th barrier pairs identical queries.
    #[test]
    fn paired_steps_line_up_across_clients() {
        for seed in [1, 8, 123] {
            let [a, b] = serve_mixed(seed);
            let pa: Vec<_> = a.iter().filter(|s| s.paired).cloned().collect();
            let pb: Vec<_> = b.iter().filter(|s| s.paired).cloned().collect();
            assert_eq!(pa.len(), DEDUP_NS.len());
            assert_eq!(pa, pb);
            let fresh: HashSet<u64> = pa.iter().map(|s| s.n).collect();
            assert_eq!(fresh.len(), DEDUP_NS.len(), "every pair is at a fresh n");
        }
    }

    /// Every repeat follows its entry's first touch, and each reduce
    /// family touches its anchor first, so the served classes are the
    /// same for every seed: per client 8 cold, 4 seeded, the rest warm.
    #[test]
    fn serve_class_counts_are_fixed() {
        for seed in [1, 2, 77] {
            for steps in serve_mixed(seed) {
                let mut seen: HashSet<String> = HashSet::new();
                let mut families: HashSet<(usize, String)> = HashSet::new();
                let (mut cold, mut seeded, mut warm) = (0, 0, 0);
                for s in steps.iter().filter(|s| !s.paired) {
                    let fam = (s.arch, s.key.id());
                    if seen.insert(s.label()) {
                        if s.key.kind.is_reduce() && !families.insert(fam.clone()) {
                            seeded += 1;
                        } else {
                            families.insert(fam);
                            assert!(
                                !s.key.kind.is_reduce() || s.n == 4 * M,
                                "reduce families touch their anchor first"
                            );
                            cold += 1;
                        }
                    } else {
                        warm += 1;
                    }
                }
                assert_eq!((cold, seeded, warm), (8, 4, WARM_PER_CLIENT), "seed {seed}");
            }
        }
    }
}
