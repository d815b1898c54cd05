//! The four workloads: what each one sends, generated from the run
//! seed alone, and the pins that tie each definition to the generators
//! it was written against.
//!
//! A workload is a fixed cycle of distinct jobs. The timed phase walks
//! the cycle for as long as it runs, so a run measures the same mix of
//! work whatever its length; the correctness gate solves each distinct
//! job once as its reference.

use crate::measure::{derive_seed, Rng};
use decss_graphs::fingerprint::graph_fingerprint;
use decss_graphs::{algo, EdgeId, Graph, VertexId};
use decss_net::jobs::instance_by_label;
use decss_solver::{mutate, GraphDelta, SolveRequest};
use decss_tree::RootedTree;
use std::sync::Arc;

/// Edge weights of every instance lie in `1..=MAX_WEIGHT` (the job
/// dialect's default, so HTTP specs and local copies agree).
pub const MAX_WEIGHT: u64 = 64;

/// The seed the pins below were recorded with, and a second seed kept
/// out of tuning: a claimed gain must also hold on it.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 1009;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SolveShortcut,
    SolveImproved,
    DeltaStream,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SolveShortcut,
        Workload::SolveImproved,
        Workload::DeltaStream,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveShortcut => "solve-shortcut",
            Workload::SolveImproved => "solve-improved",
            Workload::DeltaStream => "delta-stream",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fixed latency limit behind `goodput_share`: a few times the
    /// workload's own tail, so it flags a real slowdown, not noise.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::SolveShortcut => 600.0,
            Workload::SolveImproved => 1500.0,
            Workload::DeltaStream => 1000.0,
            Workload::ServeMix => 1500.0,
        }
    }

    /// The recorded inputs of this workload.
    pub fn pins(self) -> &'static [Pin] {
        match self {
            Workload::SolveShortcut => SOLVE_SHORTCUT_PINS,
            Workload::SolveImproved => SOLVE_IMPROVED_PINS,
            Workload::DeltaStream => DELTA_STREAM_PINS,
            Workload::ServeMix => SERVE_MIX_PINS,
        }
    }
}

/// What a workload generated for one seed: its distinct job count and
/// the `graph_fingerprint` of every input graph, in generation order.
pub struct Pin {
    pub seed: u64,
    pub jobs: usize,
    pub fingerprints: &'static [u64],
}

/// One solve job: the instance and the request sent with it.
#[derive(Clone)]
pub struct Job {
    pub graph: Arc<Graph>,
    pub req: SolveRequest,
}

fn instance(family: &str, n: usize, seed: u64) -> Graph {
    instance_by_label(family, n, MAX_WEIGHT, seed).expect("workload families are known")
}

// ---------------------------------------------------------------------
// solve-shortcut and solve-improved: an in-process `SolveService`.

/// Families whose generators take milliseconds, so the solve dominates.
const SOLVE_FAMILIES: [&str; 4] = ["grid", "roadmesh", "hard-sqrt", "adversarial"];
/// Instance sizes span `[low, low + span)` evenly across a cycle, so
/// latency percentiles fall inside a continuous spread of job costs
/// instead of on the gap between two size classes.
const SHORTCUT_SIZES: (usize, usize) = (10_000, 20_000);
const IMPROVED_SIZES: (usize, usize) = (5_000, 15_000);

/// The `i`th of `count` sizes spread evenly over `[low, low + span)`,
/// in a stride order that gives every residue class of `i` mod 4 (a
/// family) the whole range.
fn spread_size((low, span): (usize, usize), i: usize, count: usize) -> usize {
    low + (i * 37 % count) * span / count
}

/// Distinct jobs in one cycle of a solve workload. A TAP solve's cost
/// and round count vary by about 20% between seeds of one family and
/// size, with a heavy upper tail, so solve-improved averages over twice
/// as many instances as solve-shortcut (whose solves vary by 5-10%).
pub fn solve_cycle(w: Workload) -> usize {
    match w {
        Workload::SolveShortcut => 96,
        _ => 192,
    }
}

/// Job `i` of a solve workload: family `i % 4`, a size from the
/// workload's range, and for solve-improved the variant alternating
/// every twelve jobs. `salt` picks the seed stream.
fn solve_job(w: Workload, seed: u64, i: usize, salt: u64) -> Job {
    let family = SOLVE_FAMILIES[i % 4];
    let graph_seed = derive_seed(seed, salt + i as u64);
    let (size, req) = match w {
        Workload::SolveShortcut => (
            SHORTCUT_SIZES,
            SolveRequest::new("shortcut").seed(derive_seed(seed, salt + 1000 + i as u64)),
        ),
        _ => (
            IMPROVED_SIZES,
            SolveRequest::new(if (i / 12).is_multiple_of(2) {
                "improved"
            } else {
                "basic"
            }),
        ),
    };
    let n = spread_size(size, i, solve_cycle(w));
    Job { graph: Arc::new(instance(family, n, graph_seed)), req }
}

/// Job `i` of the timed cycle.
pub fn solve_job_at(w: Workload, seed: u64, i: usize) -> Job {
    solve_job(w, seed, i, 100)
}

/// The timed jobs of a solve workload, in cycle order.
pub fn solve_jobs(w: Workload, seed: u64) -> Vec<Job> {
    (0..solve_cycle(w)).map(|i| solve_job_at(w, seed, i)).collect()
}

/// Warm-up jobs: the first jobs of the mix on instances kept apart from
/// the timed set (another seed stream).
pub fn solve_warmup(w: Workload, seed: u64, count: usize) -> Vec<Job> {
    (0..count).map(|k| solve_job(w, seed, k, 5000)).collect()
}

/// Recorded with `--print-pins`.
#[rustfmt::skip]
pub const SOLVE_SHORTCUT_PINS: &[Pin] = &[
    Pin {
        seed: 1,
        jobs: 96,
        fingerprints: &[
            0xb20e964437488eda, 0xfb21851bffb5a166, 0x163d9fe3ccdd40d8, 0x3a98a1389d1e21c9,
            0x7bd36851b0b019f5, 0x219b10c63cf5aa92, 0x04e5072b7ef76842, 0x2b9dc0983e2a5628,
            0xc7e8958c204284ed, 0x4ed53ad2006ec937, 0xeaf2405cbb47b713, 0x8c1326b9821b9930,
            0x90cd5095e4cd744a, 0x63b6355e4eefe845, 0x7ea3a06846506efb, 0x094ed0d513805dce,
            0x26fa14c427407109, 0x827d81516876069b, 0x77c893e3d904d68f, 0xc5645f2860446937,
            0x9ed0f8a034dc2503, 0xf1b9a4379770e4b7, 0xd396bc8804f35c54, 0x6e0ff7a24fbe12c0,
            0xdcf299aca7b019bc, 0xc78173d54c3cecb2, 0x28b10ccd5079e0d9, 0x11ed5f4f9fc15cc7,
            0x00e65658b2e594b6, 0x73682e9b8e414f64, 0x34c42b2ab281b442, 0x7772ac958a23921e,
            0xc7f0c83a9947c3b4, 0x359a0b2a42549806, 0x58da300826bccba7, 0x4856cee5f154c774,
            0x20fa9820d3e38eb9, 0x3876365d95b36d7a, 0xee8e377f1d1bfb34, 0xce70f5d704c25ca7,
            0x1ca671860ba0a8fc, 0xe900a864d80b1f3e, 0x55eac95b8b9d86c5, 0x0aee31a95aec363e,
            0x7a3f4f5b922a9cad, 0xcfbbbc924082a89a, 0xf28ab6da92166719, 0x8964c3ad78db1912,
            0xe77153c68b70b0af, 0xa1fc4b413bae20f9, 0x10a6d1735f174298, 0x52632786bc70572b,
            0x56ccc6705e33043b, 0xb16eaeb9b3713a7e, 0x7a11e08bbe93ef75, 0x5fff535aeda398ce,
            0x1d4c34cc1ac939aa, 0x3b1d34279be58c4e, 0x8a234de77df0f1ce, 0x6e9c9cc24a258796,
            0x87b673c5ccb5c8f4, 0x71f31679d8d539e7, 0x13b5f7d55c129556, 0x54cafc9412a616bc,
            0xbbaa6e86edffb1f1, 0x01a1c1757f78f5b8, 0xf1f39e49780bbab6, 0x7ff60a496f3051b8,
            0x4fc668b451007399, 0x82763091739468bb, 0xb0f3b7fa3e18e211, 0x381cd52caf9be9c2,
            0x6c1ff22a5f542403, 0x4c1907ba17242cbb, 0x184f6fe1608c6ec8, 0xb7b719d737c76aff,
            0x39cb740674e38655, 0x366afa2e17bfc90d, 0x274a38fa04a59d41, 0x0e2d7a28484bea09,
            0x439653a956fe3598, 0xcb221e8f50d60a57, 0x3b5cffc8b51f6452, 0x8a5e9683cc3f581c,
            0x9fdfc360476ad361, 0x8de638bd80163301, 0x7d180486c83a74d3, 0xee8a812cf7cc4ba3,
            0x3f02d5ac5280a6de, 0x558430cec9e8f2a0, 0xd70f52a5b8da411e, 0x85bbf5e6128c00ee,
            0x106e9043e4afdb2e, 0xda6d6c2642af6820, 0x26a9c014ed812601, 0x75f6f8d837b12fc9,
        ],
    },
    Pin {
        seed: 1009,
        jobs: 96,
        fingerprints: &[
            0x6d910ab1671ab418, 0x4fc0343050ee8ea7, 0x81ddeab4dfd384e6, 0xf94ff474727dd001,
            0x433c81266e8b8be7, 0xdf8210ebd0fb91a3, 0x17624c40be1ae332, 0x688bbad476c02fae,
            0xe784dbe03fda13af, 0x740706a7cfe72be4, 0x3a9dfbd84593c114, 0x0cfa2370477191a1,
            0xf19897d5015fad37, 0x36d5102154b66c8d, 0xa05659c375a6467d, 0x197e3ba3bda289fc,
            0x65cda11380d9139b, 0xd8191f8e29038f85, 0xa5c21ad8dc061c9d, 0x61d8e63af80ba52f,
            0x1c4aff69396f3f82, 0xad16cf60c54f8f05, 0xa4a3f175e33bbd5d, 0xcc14ffeb7a4d2fc8,
            0xe1fc2f0fcd83e365, 0xbae47a61d6093b7a, 0x0b98bc3fe8ad5662, 0x827b22b35a7ff311,
            0x104e2c96e4155649, 0xe4923278180cc3cd, 0xd31036c4ff433c72, 0x86bff77b3f5644d1,
            0x450e53a0914562bf, 0xf34bde7223fe40b0, 0x6ddea5c454f26588, 0x551b293903c38472,
            0x9d01f1cbd4ecc265, 0x1dca38f5f2c6b7c2, 0x84f7c4b54be2312d, 0x996d61a4c5669836,
            0x5a135ae371f44cee, 0x49d0dd7eb405b561, 0xab05fc31435f5ded, 0xf9ea992428a18f65,
            0x735eea32d55f08e9, 0x03e3607b3502c4a4, 0x20048ab494234327, 0x4d20918e4624b6bb,
            0xc9df74d83ae82e4e, 0x9df9e2724b20ac82, 0xecee9ad11567ccf5, 0x6a9d2315e1ba60fe,
            0x24a0f77c15a1c87b, 0x00af392408e0c257, 0x69bdf15c36e8422e, 0xfc2d9a9be0c9c957,
            0x3c924b4f77c883e2, 0xbccae95d00f7d519, 0xa8e9ee4ddd65fa77, 0x6026b72718866052,
            0xd3a734ec95689e23, 0xaea36d3fac953485, 0xb0fd4a805ce0ce42, 0x07b0f0d92a63a27a,
            0x954373b538c311fb, 0x0a049922f5e9d86f, 0x55e52a776b0948b6, 0xb46607e11fba897c,
            0x1128107ffe4a5830, 0xa0078622c656a965, 0xed896170c5a5d9ba, 0xa90a9c609f0de413,
            0x154756e2a5f7da91, 0x482ef3003c88e0a1, 0x90b410df1c86d432, 0x7b668dd0c8039509,
            0x1ae1d7d0cf95a6f9, 0x8224c5de0b29514e, 0x73764fb2b53b7dfa, 0x2a5b1ba3b905e3f5,
            0x229aa6e7ca1cbf54, 0xa8e49143227d4da7, 0x53a2e415a5299c03, 0xc361bec4ffd9eff4,
            0x006b716960a588e5, 0x7ed8561c12c031ef, 0xca9dcff62a92d69c, 0x6e00572aa85047e4,
            0xfe9f2e1969531699, 0x2f37de0eeed83b8b, 0xaec00a9cb1c46025, 0x5f293279a9770207,
            0x1630d3bdd9688a26, 0x7e6dc3bcc21ec42b, 0x6956233fa0a5ac73, 0x6c7472b13d073589,
        ],
    },
];
#[rustfmt::skip]
pub const SOLVE_IMPROVED_PINS: &[Pin] = &[
    Pin {
        seed: 1,
        jobs: 192,
        fingerprints: &[
            0x5e300b5208c4c8f8, 0x85e41efdba8bc6ed, 0xc9fe8151fe2df861, 0x5063831e0b24c11a,
            0xd186add31338e3e4, 0x741a7ffd963e7287, 0x6a2705633b311f1a, 0x5f40efbd9d7161f7,
            0xb36776960f583cc7, 0xdd99e96ec48dad35, 0x191bd761178aea77, 0xa56abf14b8a29d0b,
            0xd67291fd79737d29, 0x3e8a3700b8d9b9ba, 0x146215538a0de1ea, 0xf9c6afeb59988bd8,
            0x18bc12bf8ef178bf, 0x8fc6c9561aee49cb, 0x852fb0ed529b1d74, 0x2f004d8dd270fb03,
            0xae1a596e3bba2616, 0x822e066efb5d12cf, 0x6cf05840b02b134a, 0x215957fc9e1bf5c1,
            0x1c0d0d3df2810889, 0x9b5b9a72a30b84b7, 0x891f8c212d28d57a, 0x68842fe0518419ce,
            0x51714a9be82eed19, 0xa723af54d79eefae, 0x68e7565f04c40096, 0xc32b5a694b731bfe,
            0xf88835b0c83013b0, 0xfc52553c98b7fcc4, 0x9032cc0be6cabc46, 0xab4008ad9e044648,
            0xe3b12222bbb77430, 0x02572dee98d2f33c, 0xdf1ead2400f666fd, 0x9974aef9fdf84406,
            0xc10c287f4b8f9552, 0xc4a607145eecdc9e, 0xbb78d282fd2bc939, 0xe264f2ff9c7ab0a9,
            0xcf0463f3ae71a120, 0x8d3fe001fe982c3a, 0x6ffde54d6de89440, 0xe8a8c3e3f03b72e4,
            0xdc02c4c22ad82c77, 0x4366e503767b8d76, 0xc667100385106a96, 0xdf8fb1b8d7c77d35,
            0x3a2013c81b1ebea9, 0xa03412883b4c44d4, 0xa26cca6fc69ecfe7, 0x5fff535aeda398ce,
            0xc8bcdc24cd3e2ad6, 0xcf95b908785cb8eb, 0xc32a5740124aa2b6, 0xd124dadc5716917a,
            0x03abffb637b57070, 0x1fc5adccacdaa76e, 0x048c03b2779f25b5, 0x057536018864cabb,
            0x12b2d609a96f382a, 0x56eabbfb0d7705c1, 0x785b500941a8d96c, 0x07d4490520f78ec4,
            0x1a2df1806e1c2ae0, 0xa0b3c3a821480ac8, 0xc89ec63d946576ed, 0x33ee4fdd88ffda71,
            0x8bb0606b07470763, 0xdfc0ba77142ea673, 0x7ef8ed87fbefd6ea, 0xa341faf3d00fcd64,
            0x6bbe2284d9baab37, 0x6520aa5d540374b5, 0x036b498c3fe4b450, 0x58c9df8f686dd3ab,
            0xed3f6e51079b4d2d, 0x4bd3b2b3ec455404, 0x65e4bcef94578750, 0x7d0268598d30c06b,
            0xcafc1b34375d2c52, 0x6fbcea7870c0132b, 0x7c3a5de225e468b7, 0xc7d0516569ef0fc4,
            0x9efb7cf804535f0a, 0x8401c79d71c79b8a, 0x3801d2b343b24d05, 0xe8d0725881ea87c8,
            0xd0291ee6bae562f7, 0xb88d4b5ffdee78d9, 0x97848274085e5482, 0xa77fc7361ef36de6,
            0x90dfae1183c51d24, 0xf8e371dc9399a368, 0x4dbf1004a81e71c7, 0xe43952c788a204ee,
            0x87f9b3e9c84efb0d, 0x52558a3e203f90f7, 0x75f1e1855bc4b59a, 0x7f689200d522b5e1,
            0x79bd53f8ed44265f, 0x82a11d9484b0d5ed, 0xb699d7614d9e0559, 0xac9f969e5111bfe1,
            0xd2af872c7ecc2997, 0x95a5613c05e4b45e, 0x4781af07b77adb01, 0xc85a5743833683fe,
            0x4303e5d64eac2792, 0x79e2c518c7d0364a, 0xf379c2c377004645, 0x801ebc052b4ef6af,
            0xa636b25500099129, 0xfc0e97d3c16ed2ac, 0xbefd2360904cfce8, 0x9375bd23df0d1850,
            0x3cfc1c82293658cb, 0x7caf65cbc75d3321, 0x5a6b5e24dc27a3d9, 0x3e627658fdf9a15c,
            0x9f54fe959faf23fa, 0x1d3da9b8717d81ea, 0xe7723a2c900beee3, 0x08dc6181f658e3f8,
            0xe3e5707bfb982adf, 0x8788522555ec6dc7, 0x79d524548e554f83, 0xcaa1e3b7cba31a0e,
            0x420265f58eb3a7f9, 0x5fc2ce7638aeda07, 0xd31b607727ace74d, 0x3da2dbd104fbcc8b,
            0x7317bb763d5ce00f, 0x2fed5ebaab673047, 0xf1a8c8bb74dd75b9, 0x77c3e0de275f1bca,
            0xca4980af938799b3, 0x5aa690afaca519b8, 0x97cdeb33d155d57a, 0xac715d02f2a2e6f7,
            0x8cc95dcdb2204f25, 0x2cbe815155d528c4, 0x792cbbc5fbe2ab84, 0x67b0c448ecf73009,
            0xc9981dfe87059cbd, 0x507bb17b781bd057, 0x3e7bd164e8bc913a, 0xf99f1886ddf2741a,
            0x0d59c22795223628, 0x7a2dc29e5b746962, 0x11752093679011cd, 0x4008cb4d6e296913,
            0x9165e1994d5ff6f6, 0x7a5f1dabe4e60c76, 0x542d06ac865c8db6, 0xacc104d4b5c088d0,
            0xdee3a459e4151984, 0xc85928a8af657ad4, 0x4c14fd4d0cf17f6f, 0xe07787b5b91dbca0,
            0x47ac364d7e796ca5, 0x78610d8b363a1fb4, 0x8d0d53f1e7c6429f, 0x6e442ed57d9de036,
            0x387b55605d0b2236, 0x37d58ab2ae0c2124, 0x0a809bf49737ee9f, 0xe9f3b45d0bfdfa86,
            0x20c9fba5ed266c3c, 0x22ea9ec941b2e98f, 0x287c2ef6726bd074, 0xf88d3b5f1a714a8e,
            0xd92fb3d4b514851e, 0xca574da5135837a7, 0xd152618835bb0268, 0xd32bb57c850ad364,
            0x9d15e1bbbd6f59d3, 0x5a1678e2064a7131, 0xee305708ff27ef93, 0x0cbcea7a0d6bef6a,
            0x6cc6b0f39e4a56c2, 0xfaf88cc2465a34da, 0x204817cea1068c37, 0xeeef2a4c809a717e,
            0x712fbec6319d5826, 0x4dcc930462867398, 0xbc3ca23aa4eab198, 0xfbb89ce4d705169d,
        ],
    },
    Pin {
        seed: 1009,
        jobs: 192,
        fingerprints: &[
            0x20d3c8195af073f0, 0x7645ccfbe87c29d1, 0x27760c8d88131622, 0xb08b18cfe19eafbb,
            0xfa4af41d7203efc6, 0x4d22ffe8e7c9bb67, 0xa4a6e1aa3adb8ba1, 0xbddd96a6eff5523b,
            0x69398cfbf8d1ed93, 0x2c49ca168659d733, 0xcff714d67d4eb43d, 0x66fc1259a97f7d0c,
            0xe33a61a5d81df47d, 0x5b6f109ff45b7b2c, 0x4439a5cb23b83dcd, 0xf3b2bf20878cee60,
            0x473c6cfa7e9ab018, 0x9e3364e48e6e84b7, 0x4638719ab87fc29e, 0x88c942749acc117b,
            0xbfe32ae3429c6042, 0xb635497387184420, 0xefcfcc953ad784f7, 0x562dda8cf62b35f4,
            0xcd556671e8aa9514, 0x0a3f0e8551fe975b, 0x638ce698185c1e85, 0xf095a5c328630ffc,
            0x8008265f58fcac07, 0xd194e906d20a713b, 0xf6991d3b44722c57, 0x67ce08d4d6cdb90f,
            0xea1b20d1b41f379b, 0xbc6b9e6405e5e0dc, 0x6253c945feb56392, 0x69f98c8e37acd687,
            0xac4d704ad0f212e2, 0x131058d402b81841, 0xc2041a89817b0f20, 0x89a2f7c8e48601fc,
            0xae5491521c61f585, 0x4c827769ca9b91a7, 0xc948593673155c01, 0xe1278fb0e62dfd7f,
            0xc12809cf4b5a924a, 0x1447b09e5d150d88, 0x345caba36026214e, 0x8cec05af1f8ff024,
            0x99c9c0975163ea69, 0xe27308db6d264497, 0x51618fbc3633af39, 0x95681852127ff94f,
            0x0cae2f306794364c, 0x003bf9c8af7a9b10, 0xe9ddc35e92da4182, 0xfc2d9a9be0c9c957,
            0x63fffe4e747d1cec, 0xcc812b6c773f4a22, 0xc31ac0e74e5a9262, 0x0e5b6813993168e7,
            0xa38d9ba5bbcab215, 0x8fe695476bce451b, 0xc0770c19d5b529c6, 0x5f3b4accfb6d2417,
            0xda6f5d0e853fabc9, 0x0a2d7b3deb364ced, 0x635cc5712c0b916e, 0x23e78aaada261a9b,
            0x2c9428f6ce189e26, 0x781849815db4f1ee, 0x93ff2fb0bab2ed36, 0xb0d59956c33b1e1e,
            0x59d4c4ecd559cfcc, 0xe6cade386633ff3f, 0x7185492491385991, 0x247b8fddda09573e,
            0xb3132bc2cd6282e3, 0x7e1a3c9192d62687, 0x4022ca96e5126569, 0xac63825c4ac65527,
            0x487b286344be859d, 0x84656cd2f63dace5, 0x547eccddf825e4d8, 0xc74f112e7e46fa45,
            0x4374a54951a638e1, 0xc00717beda705aad, 0x69b9343cb49daf0c, 0x10955aa8f045ff74,
            0xdbed3105f46e4364, 0x0328d063a1fc88cf, 0x5cf4ed2bd7807329, 0xce113f19cd87e54d,
            0x409a62a28914f5ba, 0x228ce2042e2c0814, 0x2bbd5c214169c06e, 0xe63f565cbc363052,
            0x0ceba9d671174737, 0xb2b19a6a32db7594, 0x0bd755929f52695d, 0x7dd2e6732e7e56e9,
            0xadf804eb89f666cc, 0x149003b56ffc3fa6, 0xdff17aa603d3dc20, 0x475b7b2121181ea8,
            0x5a7f64dfcef21eb3, 0x43bddbebe489c730, 0x93a4701e1ec8d526, 0x0596530ce35e6be8,
            0xe4228ace668c1dfa, 0xd29283e560ca08d9, 0x9dba114b278dd6e6, 0xb452f79a39c4f5c6,
            0xbe74dc372b3299ba, 0xccb7b2c938980335, 0xc5ae019deba4242c, 0x5fa56288416ed1cb,
            0x18f53bfba77fec1a, 0x17063c87f0019749, 0x989fa661392ec40d, 0x3843a089f55dbae3,
            0xea7f732737e41dea, 0xbbe92014d8456980, 0x6be545de432a0acc, 0x80cfd66bc5e1fab1,
            0xf0a9488d434a1732, 0xd15ed672bfa814e2, 0xfe5d64ef3b752422, 0xc1ad7024a9553752,
            0xe08bb3f2dda0b0c5, 0xbf22c8c0bea2dcee, 0xb38fd12ff369b0cd, 0x35591c1b11f18ad5,
            0x0eb3a3e7ca0cfee2, 0x7fa69971462327cb, 0x56d03cdbd64ac385, 0x368a0ebc096ceaf4,
            0xd589af2cc7ebcecf, 0x99f0d9d88a0b179d, 0xe9630ecd8499a823, 0xec03d8f2040c50bb,
            0xce5d3854f466fa11, 0x806b79ee22a652e1, 0xca69a5986e9776cf, 0xee7c0902eae7ff7c,
            0x01fc42623280a4bb, 0x58e10dbaa6e43dcd, 0xec5d94ef721d5922, 0xc6a14a8bf4e7b087,
            0x34da8fce26d771ec, 0x0e784bc3bd16a99c, 0x71f1d43134ddd422, 0x966243dee268181a,
            0xa92989c44cc5fb7c, 0xae201a0cf1504990, 0xee69b5a893e6ca34, 0xbd96a76a1eaa24a0,
            0x4199045c16a3d9c0, 0x1633e61fb006e12c, 0xbcd4e34450edb356, 0x0234b8debb13662b,
            0xfc248b8f91d6a44e, 0x97e21b07049f6de7, 0x8d24fcdd53fb5ac8, 0x0b31a248c96dc1b7,
            0xbac8f00b6b51f678, 0x7707bc923d0b0e85, 0xd331be402774baa8, 0x97080080fd026f81,
            0x6f6726961ce0a612, 0x77bd564f50a09329, 0x01dd2fdffe08149b, 0xba2b8354578eba25,
            0x7f85baaf14876964, 0xc97c28c806fb43fa, 0xbdb5ed914bf42267, 0x98a1481bd6665f70,
            0x89c60a40d7ff4a56, 0x1eb74a62ad0957e9, 0x69690acf033cc5f1, 0x5d2fa9821caaa8b2,
            0x5d4a955ebf8a1ad8, 0x6693b6bb182a6ae9, 0x36f94719910de431, 0xecf3c0ebe7b89583,
            0x2275c64dcf99c73f, 0xd04fe600a1133cf6, 0x67701bba6c291eaf, 0xe59a96ac2fd6e633,
            0x136c448c062c64dc, 0xb0c53b76504517c4, 0xf0b72014cccb339a, 0xffeddd97519d9fee,
        ],
    },
];

// ---------------------------------------------------------------------
// delta-stream: chains of delta batches against retained instances.

/// The chain bases, at this size. A road-mesh request costs about two
/// thirds of a grid request; with two grid chains to one road mesh, the
/// median and p90 requests fall inside the grid cluster rather than on
/// the gap between the two.
const CHAIN_FAMILIES: [&str; 3] = ["grid", "roadmesh", "grid"];
const CHAIN_N: usize = 50_000;
/// Batches per chain. Three chains of eight keep all 27 states inside
/// the session's 32-instance retention, so the cycle never rebuilds
/// from scratch except where a batch forces it.
pub const CHAIN_STEPS: usize = 8;

/// `states[s]` plus `batches[s]` gives `states[s + 1]`; every state is
/// 2-edge-connected.
pub struct Chain {
    pub states: Vec<Arc<Graph>>,
    pub batches: Vec<Vec<GraphDelta>>,
    /// The set-cover seed every request of this chain carries.
    pub solve_seed: u64,
}

impl Chain {
    /// The request for step `s`.
    pub fn request(&self, s: usize) -> Job {
        Job {
            graph: Arc::clone(&self.states[s]),
            req: SolveRequest::new("shortcut")
                .seed(self.solve_seed)
                .deltas(self.batches[s].clone()),
        }
    }

    /// A batch that rewrites one weight to its own value: the mutated
    /// graph is the base, so solving it primes the retained instance of
    /// the base without being one of the timed jobs.
    pub fn warmup(&self) -> Job {
        let base = &self.states[0];
        let weight = base.weight(EdgeId(0));
        Job {
            graph: Arc::clone(base),
            req: SolveRequest::new("shortcut")
                .seed(self.solve_seed)
                .deltas(vec![GraphDelta::Reweight { edge: EdgeId(0), weight }]),
        }
    }
}

/// The base graph of chain `c`.
pub fn chain_base(seed: u64, c: usize) -> Graph {
    instance(CHAIN_FAMILIES[c], CHAIN_N, derive_seed(seed, 210 + c as u64))
}

/// Batch `step` of chain `c`. Steps 2 and 5 are local structural edits:
/// they delete two edges outside both the MST and the BFS backbone and
/// insert two heavy edges between vertices two hops apart at the same
/// BFS depth, so the retained decomposition survives and only the
/// touched parts are re-measured. Step 6 of the first chain reweights
/// every third tree edge, which moves the tree and forces a full
/// rebuild (`fell_back`): one request in 24, so the p90 tail sits
/// inside the incremental requests rather than on the edge between the
/// two. Every other step raises the weight of three non-tree edges,
/// leaving the tree intact.
fn batch(g: &Graph, c: usize, step: usize, rng: &mut Rng) -> Vec<GraphDelta> {
    let tree = RootedTree::mst(g);
    let loose: Vec<EdgeId> = g.edge_ids().filter(|&e| !tree.is_tree_edge(e)).collect();
    let pick = |rng: &mut Rng| loose[rng.below(loose.len())];
    match (c, step) {
        (_, 2 | 5) => {
            // The backbone `DynamicInstance` compares: BFS from vertex 0.
            let root = VertexId(0);
            let bfs: Vec<EdgeId> = algo::bfs_tree(g, root).tree_edges().collect();
            let depth = algo::bfs_distances(g, root);
            let mut deltas: Vec<GraphDelta> = Vec::new();
            while deltas.len() < 2 {
                let edge = pick(rng);
                let fresh = !deltas.contains(&GraphDelta::Delete { edge });
                if fresh && !bfs.contains(&edge) {
                    deltas.push(GraphDelta::Delete { edge });
                }
            }
            while deltas.len() < 4 {
                let u = VertexId(rng.below(g.n()) as u32);
                let near = g.neighbors(u);
                let (_, mid) = near[rng.below(near.len())];
                let far = g.neighbors(mid);
                let (_, v) = far[rng.below(far.len())];
                if v != u
                    && depth[v.index()] == depth[u.index()]
                    && !near.iter().any(|&(_, x)| x == v)
                {
                    let weight = MAX_WEIGHT + 1 + rng.below(32) as u64;
                    deltas.push(GraphDelta::Insert { u, v, weight });
                }
            }
            deltas
        }
        (0, 6) => g
            .edge_ids()
            .filter(|&e| tree.is_tree_edge(e))
            .step_by(3)
            .map(|edge| GraphDelta::Reweight {
                edge,
                weight: 1 + rng.below(MAX_WEIGHT as usize) as u64,
            })
            .collect(),
        _ => (0..3)
            .map(|_| {
                let edge = pick(rng);
                GraphDelta::Reweight { edge, weight: g.weight(edge) + 1 + rng.below(32) as u64 }
            })
            .collect(),
    }
}

pub fn delta_chains(seed: u64) -> Vec<Chain> {
    (0..CHAIN_FAMILIES.len())
        .map(|c| {
            let mut rng = Rng::new(derive_seed(seed, 200 + c as u64));
            let mut states = vec![Arc::new(chain_base(seed, c))];
            let mut batches = Vec::with_capacity(CHAIN_STEPS);
            for step in 0..CHAIN_STEPS {
                let g = states.last().expect("a chain has a base");
                // Redraw until the batch keeps the graph 2-edge-connected.
                let (deltas, next) = loop {
                    let deltas = batch(g, c, step, &mut rng);
                    let next = mutate(g, &deltas).expect("batches use valid ids");
                    if algo::is_two_edge_connected(&next) {
                        break (deltas, next);
                    }
                };
                batches.push(deltas);
                states.push(Arc::new(next));
            }
            Chain {
                states,
                batches,
                solve_seed: derive_seed(seed, 220 + c as u64),
            }
        })
        .collect()
}

/// Recorded with `--print-pins`: every chain state, base first.
#[rustfmt::skip]
pub const DELTA_STREAM_PINS: &[Pin] = &[
    Pin {
        seed: 1,
        jobs: 24,
        fingerprints: &[
            0xe17ef669ec59032b, 0x3a1a4e44eebcb6bb, 0xa9d1a343f5cc5661, 0xde13b7c4103e8680,
            0x61d7cb5e9e9b7f2d, 0x5b281057139b92a4, 0xa55358ce88ffe9ec, 0xfa96b9ab7893ca26,
            0x8c005a63b7c22721, 0x02916cc9b34736c0, 0x3e540842dc73c8a0, 0xee222f792249a4d8,
            0xf081c7a1f7804190, 0x047e191ce1bf7e5d, 0x5449315709899d36, 0xe24adbfe4ee799c2,
            0x31b98e9b03b1c836, 0xeb92293a09e99ea1, 0xb3f3ae18c6c9af27, 0xa0e3c6bafa65fcc6,
            0x4ff7ca2243053e21, 0xcce52c78211a0fe8, 0x871a6e6972278457, 0xb8899acb69a9ecbb,
            0xec9bf2fdf09b9f40, 0xc2196d5c057e3f1c, 0x2cd679774f8d54e2,
        ],
    },
    Pin {
        seed: 1009,
        jobs: 24,
        fingerprints: &[
            0x9db3070c496054b0, 0x4e8fe44fcd67cf38, 0xb0ce0a6ad0781e84, 0xdda78ac617659b2b,
            0xb55a436af13965b5, 0xf2a32f854dcf4d38, 0x13c2dfa690f3f42f, 0xc3ffd7a69ae77b21,
            0xc026c8c4a016263c, 0xbfd2f0031f49ca87, 0x05092883919d4cdc, 0x1a79b7a7a726e5e3,
            0x196198bc72502cfa, 0xeeed96d5642aa12a, 0xfb919ecc0368e1b2, 0x18bb4631ae8297b0,
            0x4f4236b018f4583a, 0xfc8744488c57fcf6, 0x11711a975a030971, 0x960eca11af800b7c,
            0xf33048be074dea9b, 0x5786a2fe54886eed, 0x20de680045590cab, 0x87f1e1f6a90d0cc9,
            0x90bd31e36ff65094, 0x2d03f6b49301ca2c, 0xd15a4e82a40ec183,
        ],
    },
];

// ---------------------------------------------------------------------
// serve-mix: an in-process HTTP server.

/// Distinct specs in one cycle; the server's cache holds a sixth of
/// them, so a spec's second use in a cycle hits and its next cycle's
/// first use misses.
pub const POOL: usize = 96;
pub const SERVE_CACHE: usize = 16;
const SERVE_FAMILIES: [&str; 4] = ["powerlaw", "expander", "grid", "roadmesh"];
const SERVE_ALGORITHMS: [&str; 3] = ["shortcut", "improved", "greedy"];
/// A `POST /jobs` batch every fourth request.
const BATCH: usize = 4;
/// Requests in one cycle of the stream: `2 * POOL` spec slots at seven
/// slots per four requests.
pub const SERVE_CYCLE: usize = 2 * POOL * 4 / 7;

/// One job spec of the HTTP dialect.
#[derive(Clone)]
pub struct Spec {
    pub algorithm: &'static str,
    pub family: &'static str,
    pub n: usize,
    pub seed: u64,
}

impl Spec {
    pub fn line(&self) -> String {
        format!(
            "{{\"algorithm\": \"{}\", \"family\": \"{}\", \"n\": {}, \"seed\": {}}}",
            self.algorithm, self.family, self.n, self.seed
        )
    }

    pub fn instance(&self) -> Graph {
        instance(self.family, self.n, self.seed)
    }
}

fn spec(seed: u64, p: usize, salt: u64) -> Spec {
    let family = SERVE_FAMILIES[p % 4];
    let algorithm = SERVE_ALGORITHMS[(p / 4) % 3];
    let slow_gen = p % 4 < 2;
    let range = match (algorithm, slow_gen) {
        // The greedy baseline is super-quadratic: keep it small.
        ("greedy", true) => (1_000, 500),
        ("greedy", false) => (2_000, 1_000),
        (_, true) => (2_000, 4_000),
        (_, false) => (4_000, 8_000),
    };
    Spec {
        algorithm,
        family,
        n: spread_size(range, p, POOL),
        seed: derive_seed(seed, salt + p as u64),
    }
}

pub fn serve_pool(seed: u64) -> Vec<Spec> {
    (0..POOL).map(|p| spec(seed, p, 300)).collect()
}

/// One HTTP request: its path, body, and the pool index of each spec.
pub struct NetRequest {
    pub path: &'static str,
    pub body: String,
    pub specs: Vec<usize>,
}

pub fn body(lines: impl Iterator<Item = String>) -> String {
    format!("[\n{}\n]\n", lines.collect::<Vec<_>>().join(",\n"))
}

/// The first `count` requests of the serve-mix stream. Spec slots
/// alternate: even slots take the pool in order (a miss, since the
/// entry left the cache a cycle ago), odd slots repeat one of the last
/// four fresh specs (a hit). Every fourth request is a `POST /jobs`
/// batch of four slots; the rest are `POST /solve` singles. The
/// pattern is fixed; the seed only picks the instances.
pub fn serve_requests(pool: &[Spec], count: usize) -> Vec<NetRequest> {
    let mut slot = 0usize;
    let mut next_slot = || {
        let fresh = slot / 2;
        let p = if slot.is_multiple_of(2) {
            fresh
        } else {
            fresh - (fresh * 5 % 4).min(fresh)
        };
        slot += 1;
        p % pool.len()
    };
    (0..count)
        .map(|q| {
            let (path, k) = if q % 4 == 3 {
                ("/jobs", BATCH)
            } else {
                ("/solve", 1)
            };
            let specs: Vec<usize> = (0..k).map(|_| next_slot()).collect();
            NetRequest {
                path,
                body: body(specs.iter().map(|&p| pool[p].line())),
                specs,
            }
        })
        .collect()
}

/// Warm-up requests: one single per algorithm and one batch, on small
/// specs outside the pool.
pub fn serve_warmup(seed: u64) -> Vec<String> {
    let small: Vec<Spec> = (0..SERVE_ALGORITHMS.len() * 4)
        .map(|p| Spec { n: 500, ..spec(seed, p, 700) })
        .collect();
    let mut bodies: Vec<String> = small
        .iter()
        .step_by(4)
        .map(|s| body(std::iter::once(s.line())))
        .collect();
    bodies.push(body(small.iter().skip(1).step_by(3).map(Spec::line)));
    bodies
}

/// Recorded with `--print-pins`: the pool specs' instances.
#[rustfmt::skip]
pub const SERVE_MIX_PINS: &[Pin] = &[
    Pin {
        seed: 1,
        jobs: 96,
        fingerprints: &[
            0xa6b828b9a07f9d95, 0x4bb1083ca0daf27a, 0x7cd138b5ed2fbcda, 0xab2df49cfb1c295b,
            0xfad81fafb4dc7b47, 0x2589e58edfd4397c, 0x3451054e51f4e7cc, 0xef84cb3237132b65,
            0x48fe7c2118008948, 0x04adccf490f1574f, 0x9173d78ca9acaa09, 0x16371c3f91cf3aea,
            0x7dfc17dc90a06905, 0x892b06edbe325748, 0x16d7ecdd2b3e6024, 0x323e26eecab3ec1d,
            0x65da5e6ef5db7421, 0x111e4f3e0c0dd6c1, 0x9b4f59b0a721592b, 0x084d8719ad65b07d,
            0x0282c48fa48a0e41, 0xf2b17f92ea304cc6, 0xa724fa446c4b7973, 0xba43af2fc9429b61,
            0x8aba0f0c498e348a, 0xc12d7ce508359ccc, 0x77e287b9f0c5c044, 0xd6bb304785ae373a,
            0xc833adcfbb2fbf6e, 0x1610c086ca76f205, 0x73659623b13cf1e3, 0xdab4c862d50360b2,
            0x4a6d60124093e7d6, 0xd11595eab35ee256, 0xbcd58fc1cd2af25b, 0x939b5cf684f204ea,
            0xc996eeec5f41a410, 0xe3c975efa86bd0d6, 0x99a9ce88fa01d6f7, 0xcaf0b9b539c4d3dd,
            0x6fc17e2868deaf3a, 0x7cc7f3e565ca03c1, 0xb61401844e2f89ef, 0x1fea20acc258e2ab,
            0x73bc24746537f858, 0x9f4a0aa3a5f42fb2, 0xb4bb243ed515e9cd, 0x888248b3b5ebf1a7,
            0xeb9c805aab09e3b7, 0x8dcb5ff9e5b4b291, 0x43cb3767b486f33d, 0xb0493c18a2a5c993,
            0x3acdbbc1d8591c21, 0x427aed3367a0be7e, 0xcf0b2e1b3db226a1, 0x691ff4c4b6737a38,
            0x64e497d2ed775112, 0xc85b74f1e9268757, 0xef25bee92004b431, 0x6704c40bc4ec5c2f,
            0xb174dc82ef6aadf6, 0xfd22552ba925e261, 0x6953ac42d8c464d2, 0x8a81cd44c45d7bd3,
            0x934bda774e815a10, 0x525df5866dde51fa, 0x7b4f449fcad1a0ee, 0x116e5a1a39ac138d,
            0x78519e49171ccf56, 0x997f36c6ee70e87e, 0xe684a2f4ce46113f, 0xf20d85a3c7bebdd5,
            0x96e28ff76bce4bd4, 0xd9f4c344c7b7921b, 0x2b09ebf0df9956f7, 0x2b757112e5e5d822,
            0xa98d11ede2dd284f, 0xea6f0c9eb4477d20, 0xf43ed466f19a24e2, 0x8b43f8b31f44634b,
            0x7759e5890ac643ea, 0xa27e003e5d7206c5, 0xb296c20fbf71493a, 0x907a420af5bdfedb,
            0xae8b4e825f36c107, 0x355215088217ee03, 0x35359c5188e9f07e, 0xd1fd0b22f442a6ba,
            0x4fbc4ae3c21a7d70, 0x7c6af63021fd3a99, 0xaa0ad04cb22c7fba, 0xc4da7ae9a4797ffe,
            0x794662cb5cb802a0, 0xd44bb070526338d1, 0x1bc894ca04492320, 0x3a645e8146f0cd0f,
        ],
    },
    Pin {
        seed: 1009,
        jobs: 96,
        fingerprints: &[
            0x2bfff69c208ce9ec, 0xd320cfdde273abad, 0xd34b3183961b910d, 0xd5a6fa22aa322d05,
            0x0a6c63f0e9bcfd05, 0x6d4a1f76816ac658, 0x95e907bdc64e72f7, 0x4da755aa3cfdc85f,
            0x5aea51f62909f781, 0xa6263e535e55b9b8, 0xf9cd81147b92ec59, 0x3811ab5d1cb0f8f9,
            0x05850e5ae064b41f, 0x1ec98e62c8992ed9, 0x34ba9303310cf8b1, 0x621c7ff00e362438,
            0x673d0e604e5d29f2, 0x59230de7c184e4c0, 0x084c8cf8a8f27da3, 0x17a13920a3769ba5,
            0xc21d1e8e8c42438b, 0xc990f92034756e34, 0xbba35f40a14873b7, 0x800b12ae9360dfc6,
            0x4560159cc3c6ff95, 0x6d1dff339458246f, 0x2bbea5a7d9de3a00, 0xc0d28ec7ba4aaf89,
            0x4c54b6225fb47b04, 0x7e8c5fc57730edf8, 0x84b42dd643ac7225, 0xfb81dd294fbce058,
            0x58f3fdea0fc76d9a, 0xa79f8ce25102d087, 0xf032ce9c98d34304, 0x64913e01fcbc08d4,
            0x919057a4f5f3330a, 0x200e66a9b6f22da2, 0x0b6af458cc304763, 0x326d3ec46391f0e8,
            0x2dafa362600d2f2a, 0x236aa0f73049f844, 0x671c7d6a1d2e6887, 0x1b9248174a8215aa,
            0xfd1e5bf3c06551d8, 0x507a3e4055c00e11, 0xcce82001c0120d02, 0x5a57dfd56aef56dc,
            0x3179993eeb23e3f4, 0xf2139ddf71667f44, 0xa534ca51ee454f14, 0x227b72d1d7ad2aac,
            0x05b2f893e89d9530, 0x26cd558af68993bf, 0x88a8ffc4c2fd4f65, 0xef52710dbb8956a0,
            0x465ef3322cb43016, 0x9297fbac2f224ca1, 0xdf432fd328d6bf5c, 0xd23c252cc4ba1eeb,
            0xa398ced856e7022e, 0x324871d58b3256d6, 0x37ecaceda299de04, 0x0b9bba41e1b1ef9c,
            0xbff3c7beba7cbf26, 0x02d373338a15bfc7, 0x5010ed9db739677f, 0x938b29973752e083,
            0x8972ec311a5064cf, 0xc45f8c92705f575d, 0x0f85fdd1d48a9246, 0x82063790aaff39c5,
            0x5ceab85f8e1671a7, 0x084d0ee5d5b2427f, 0xa24327c72a78464d, 0x483b7d2b2ae675b2,
            0x4eca45ce03cfc3b4, 0xe86934977c33d62c, 0x5c2f8a1d6c9e9693, 0x459e34bca62853b4,
            0xb1a5b24bd20e1d68, 0x209cc7f78f757581, 0x8713308560d4e38e, 0x83799be8ef4f337a,
            0x48c049a1315cf2c3, 0x5529576754d2b53e, 0x2e56995fff327e5b, 0x8745e4cd87f3059b,
            0x4984a9d4abb4097a, 0x186747853ece7247, 0x3b72237514ab6541, 0x159c79f43d46f231,
            0x96149402034949bc, 0x19eb5abd61800798, 0x356d07845a107181, 0x2718b3353c28c072,
        ],
    },
];

// ---------------------------------------------------------------------
// Pins.

/// The input fingerprints of workload `w` at `seed`, and its distinct
/// job count.
pub fn input_fingerprints(w: Workload, seed: u64) -> (usize, Vec<u64>) {
    match w {
        Workload::SolveShortcut | Workload::SolveImproved => {
            let jobs = solve_jobs(w, seed);
            (jobs.len(), jobs.iter().map(|j| graph_fingerprint(&j.graph)).collect())
        }
        Workload::DeltaStream => {
            let chains = delta_chains(seed);
            let jobs = chains.iter().map(|c| c.batches.len()).sum();
            (
                jobs,
                chains
                    .iter()
                    .flat_map(|c| c.states.iter().map(|g| graph_fingerprint(g)))
                    .collect(),
            )
        }
        Workload::ServeMix => {
            let pool = serve_pool(seed);
            (
                pool.len(),
                pool.iter().map(|s| graph_fingerprint(&s.instance())).collect(),
            )
        }
    }
}

/// Refuses a run whose generated inputs differ from the recorded ones,
/// so a generator change cannot shift a workload silently. A pinned
/// seed is checked directly; any other seed checks the default seed's
/// inputs, which costs one extra generation outside the measurement.
pub fn check_pins(w: Workload, seed: u64) -> Result<(), String> {
    let pins = w.pins();
    let pin = pins
        .iter()
        .find(|p| p.seed == seed)
        .or_else(|| pins.iter().find(|p| p.seed == DEFAULT_SEED))
        .ok_or_else(|| format!("{} has no recorded pin", w.name()))?;
    let (jobs, fingerprints) = input_fingerprints(w, pin.seed);
    if jobs != pin.jobs || fingerprints != pin.fingerprints {
        return Err(format!(
            "{} inputs at seed {} differ from the recorded pin ({} jobs, {} graphs pinned; \
             generated {jobs} jobs, {} graphs): a generator changed; re-record the pins \
             with --print-pins as a benchmark change of its own",
            w.name(),
            pin.seed,
            pin.jobs,
            pin.fingerprints.len(),
            fingerprints.len()
        ));
    }
    Ok(())
}

pub fn print_pins() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let (jobs, fps) = input_fingerprints(w, seed);
            println!("{} seed {seed}: {jobs} jobs", w.name());
            for chunk in fps.chunks(4) {
                let row: Vec<String> = chunk.iter().map(|fp| format!("{fp:#018x},")).collect();
                println!("    {}", row.join(" "));
            }
        }
    }
}
