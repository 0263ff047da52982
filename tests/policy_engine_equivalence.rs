//! Score-table policy regression pins.
//!
//! Golden values for every policy's selection decisions: each `RunTotals`
//! field and the exact victim sequence (FNV-1a digest) over seeds 0-9 on
//! the small configuration and seeds 0-2 on a 10% paper configuration.
//! They predate the current representation of counter-policy state (the
//! plain per-partition score tables of `pgc_odb::policies::scoreboard`)
//! and have been held, unmodified, across every rewrite of it: how a
//! policy stores its counters is never a selection decision. (The two
//! oldest tests keep the names the tier-1 floor list knows them by.)
//!
//! The `Composite` and `AdaptiveMeta` rows, the non-default-trigger
//! digests and the shadow-pick digests were captured on the commit before
//! the score tables replaced a memoised ranking engine: the triggers are
//! the configurations where that engine answered from a partly
//! invalidated memo, the shadows the one place a memo outlived a
//! collection.
//!
//! Style and digest follow `tests/bus_equivalence.rs`.

use pgc::odb::{PolicyKind, Trigger};
use pgc::sim::shadow::run_race;
use pgc::sim::{outcome_digest, RunConfig, RunTotals, Simulation};
use pgc::types::Bytes;

fn fnv1a64(victims: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in victims {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(policy, seed, golden totals, collection count, victim digest)`.
type Golden = (PolicyKind, u64, RunTotals, usize, u64);

fn check(cfg: &RunConfig, golden: &[Golden]) {
    for (policy, seed, totals, n_collections, digest) in golden {
        let cfg = cfg.clone().with_policy(*policy).with_seed(*seed);
        let out = Simulation::builder(&cfg).run().expect("run");
        assert_eq!(
            out.totals, *totals,
            "{policy:?} seed {seed}: totals diverged from the golden run"
        );
        let victims: Vec<u32> = out.collections.iter().map(|c| c.victim.index()).collect();
        assert_eq!(victims.len(), *n_collections, "{policy:?} seed {seed}");
        assert_eq!(
            fnv1a64(&victims),
            *digest,
            "{policy:?} seed {seed}: victim sequence diverged from the golden run"
        );
    }
}

#[rustfmt::skip]
const GOLDEN_SMALL: &[Golden] = &[
    (PolicyKind::NoCollection, 0, RunTotals { app_ios: 2709, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(313872), final_nepotism_bytes: Bytes(80602), events: 11630 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 1, RunTotals { app_ios: 2383, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(331834), final_nepotism_bytes: Bytes(87862), events: 9423 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 2, RunTotals { app_ios: 2676, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(365892), final_nepotism_bytes: Bytes(96167), events: 10074 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 3, RunTotals { app_ios: 2684, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(293777), final_nepotism_bytes: Bytes(51862), events: 10160 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 4, RunTotals { app_ios: 2192, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(296943), final_nepotism_bytes: Bytes(84437), events: 9024 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 5, RunTotals { app_ios: 2736, gc_ios: 0, max_footprint: Bytes(573440), partitions: 35, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(293149), final_nepotism_bytes: Bytes(58490), events: 11220 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 6, RunTotals { app_ios: 2621, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(297411), final_nepotism_bytes: Bytes(91048), events: 10553 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 7, RunTotals { app_ios: 2225, gc_ios: 0, max_footprint: Bytes(573440), partitions: 35, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(313985), final_nepotism_bytes: Bytes(102383), events: 8627 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 8, RunTotals { app_ios: 2549, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(307923), final_nepotism_bytes: Bytes(63391), events: 10960 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 9, RunTotals { app_ios: 2424, gc_ios: 0, max_footprint: Bytes(557056), partitions: 34, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(327177), final_nepotism_bytes: Bytes(101616), events: 10423 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::MutatedPartition, 0, RunTotals { app_ios: 2690, gc_ios: 444, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(60432), reclaimed_objects: 598, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(253440), final_nepotism_bytes: Bytes(58607), events: 11630 }, 12, 0x342715bf54fb8fb9u64),
    (PolicyKind::MutatedPartition, 1, RunTotals { app_ios: 2334, gc_ios: 291, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(102265), reclaimed_objects: 1006, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(229569), final_nepotism_bytes: Bytes(47504), events: 9423 }, 11, 0xedfddfed8778189eu64),
    (PolicyKind::MutatedPartition, 2, RunTotals { app_ios: 2641, gc_ios: 329, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(87324), reclaimed_objects: 877, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(278568), final_nepotism_bytes: Bytes(65566), events: 10074 }, 12, 0xdd85772bd5388f15u64),
    (PolicyKind::MutatedPartition, 3, RunTotals { app_ios: 2634, gc_ios: 397, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(70700), reclaimed_objects: 699, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(223077), final_nepotism_bytes: Bytes(80711), events: 10160 }, 12, 0xd5cb288fc0048e72u64),
    (PolicyKind::MutatedPartition, 4, RunTotals { app_ios: 2167, gc_ios: 313, max_footprint: Bytes(491520), partitions: 30, collections: 9, reclaimed_bytes: Bytes(65601), reclaimed_objects: 663, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(231342), final_nepotism_bytes: Bytes(32322), events: 9024 }, 9, 0x3f093b02882555e7u64),
    (PolicyKind::MutatedPartition, 5, RunTotals { app_ios: 2754, gc_ios: 373, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(70752), reclaimed_objects: 709, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(222397), final_nepotism_bytes: Bytes(56062), events: 11220 }, 12, 0xed1e129c2f85534eu64),
    (PolicyKind::MutatedPartition, 6, RunTotals { app_ios: 2554, gc_ios: 352, max_footprint: Bytes(491520), partitions: 30, collections: 10, reclaimed_bytes: Bytes(56562), reclaimed_objects: 564, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(240849), final_nepotism_bytes: Bytes(81098), events: 10553 }, 10, 0x4197896ef44b6c61u64),
    (PolicyKind::MutatedPartition, 7, RunTotals { app_ios: 2169, gc_ios: 360, max_footprint: Bytes(491520), partitions: 30, collections: 11, reclaimed_bytes: Bytes(68980), reclaimed_objects: 696, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(245005), final_nepotism_bytes: Bytes(82157), events: 8627 }, 11, 0x5b8413f48f17df89u64),
    (PolicyKind::MutatedPartition, 8, RunTotals { app_ios: 2489, gc_ios: 354, max_footprint: Bytes(475136), partitions: 29, collections: 12, reclaimed_bytes: Bytes(73824), reclaimed_objects: 746, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(234099), final_nepotism_bytes: Bytes(41166), events: 10960 }, 12, 0x20d37fb1468ce4fdu64),
    (PolicyKind::MutatedPartition, 9, RunTotals { app_ios: 2314, gc_ios: 381, max_footprint: Bytes(475136), partitions: 29, collections: 11, reclaimed_bytes: Bytes(81881), reclaimed_objects: 803, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(245296), final_nepotism_bytes: Bytes(66767), events: 10423 }, 11, 0xdc06eabe7c8aab0du64),
    (PolicyKind::Random, 0, RunTotals { app_ios: 2677, gc_ios: 381, max_footprint: Bytes(475136), partitions: 29, collections: 12, reclaimed_bytes: Bytes(83659), reclaimed_objects: 752, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(230213), final_nepotism_bytes: Bytes(57850), events: 11630 }, 12, 0x99963ac0bd3f50fcu64),
    (PolicyKind::Random, 1, RunTotals { app_ios: 2347, gc_ios: 224, max_footprint: Bytes(507904), partitions: 31, collections: 11, reclaimed_bytes: Bytes(54639), reclaimed_objects: 535, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(277195), final_nepotism_bytes: Bytes(72299), events: 9423 }, 11, 0x2f075901a3bddabbu64),
    (PolicyKind::Random, 2, RunTotals { app_ios: 2646, gc_ios: 312, max_footprint: Bytes(524288), partitions: 32, collections: 12, reclaimed_bytes: Bytes(54759), reclaimed_objects: 457, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(311133), final_nepotism_bytes: Bytes(98402), events: 10074 }, 12, 0xee59c51ecfc7863du64),
    (PolicyKind::Random, 3, RunTotals { app_ios: 2646, gc_ios: 362, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(69261), reclaimed_objects: 619, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(224516), final_nepotism_bytes: Bytes(64899), events: 10160 }, 12, 0x97bd82b9cc54a47eu64),
    (PolicyKind::Random, 4, RunTotals { app_ios: 2170, gc_ios: 269, max_footprint: Bytes(507904), partitions: 31, collections: 9, reclaimed_bytes: Bytes(61017), reclaimed_objects: 532, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(235926), final_nepotism_bytes: Bytes(63074), events: 9024 }, 9, 0xf2c06320d3b632a7u64),
    (PolicyKind::Random, 5, RunTotals { app_ios: 2716, gc_ios: 342, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(59082), reclaimed_objects: 589, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(234067), final_nepotism_bytes: Bytes(65624), events: 11220 }, 12, 0xe2aadf796a55c687u64),
    (PolicyKind::Random, 6, RunTotals { app_ios: 2505, gc_ios: 404, max_footprint: Bytes(507904), partitions: 31, collections: 10, reclaimed_bytes: Bytes(46375), reclaimed_objects: 463, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(251036), final_nepotism_bytes: Bytes(70383), events: 10553 }, 10, 0x9757687a286ca6ecu64),
    (PolicyKind::Random, 7, RunTotals { app_ios: 2229, gc_ios: 332, max_footprint: Bytes(491520), partitions: 30, collections: 11, reclaimed_bytes: Bytes(85454), reclaimed_objects: 783, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(228531), final_nepotism_bytes: Bytes(65628), events: 8627 }, 11, 0x272d6d0018f7f946u64),
    (PolicyKind::Random, 8, RunTotals { app_ios: 2573, gc_ios: 368, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(69513), reclaimed_objects: 706, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(238410), final_nepotism_bytes: Bytes(56432), events: 10960 }, 12, 0x4f0b2408b53fcd1du64),
    (PolicyKind::Random, 9, RunTotals { app_ios: 2355, gc_ios: 322, max_footprint: Bytes(491520), partitions: 30, collections: 11, reclaimed_bytes: Bytes(63138), reclaimed_objects: 468, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(264039), final_nepotism_bytes: Bytes(85315), events: 10423 }, 11, 0x7e260e73e85ab4c7u64),
    (PolicyKind::WeightedPointer, 0, RunTotals { app_ios: 2667, gc_ios: 364, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(113947), reclaimed_objects: 1068, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(199925), final_nepotism_bytes: Bytes(57497), events: 11630 }, 12, 0x8fe351c463768578u64),
    (PolicyKind::WeightedPointer, 1, RunTotals { app_ios: 2343, gc_ios: 260, max_footprint: Bytes(442368), partitions: 27, collections: 11, reclaimed_bytes: Bytes(115717), reclaimed_objects: 1068, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(216117), final_nepotism_bytes: Bytes(69687), events: 9423 }, 11, 0x9e59944808d38583u64),
    (PolicyKind::WeightedPointer, 2, RunTotals { app_ios: 2548, gc_ios: 333, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(110993), reclaimed_objects: 1121, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(254899), final_nepotism_bytes: Bytes(53348), events: 10074 }, 12, 0x4e9bf24f65da9dd0u64),
    (PolicyKind::WeightedPointer, 3, RunTotals { app_ios: 2574, gc_ios: 310, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(124263), reclaimed_objects: 1157, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(169514), final_nepotism_bytes: Bytes(30773), events: 10160 }, 12, 0x3301d7b95358d952u64),
    (PolicyKind::WeightedPointer, 4, RunTotals { app_ios: 2171, gc_ios: 271, max_footprint: Bytes(475136), partitions: 29, collections: 9, reclaimed_bytes: Bytes(84598), reclaimed_objects: 770, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(212345), final_nepotism_bytes: Bytes(51840), events: 9024 }, 9, 0x53bb1c21c5dbacefu64),
    (PolicyKind::WeightedPointer, 5, RunTotals { app_ios: 2714, gc_ios: 343, max_footprint: Bytes(475136), partitions: 29, collections: 12, reclaimed_bytes: Bytes(95317), reclaimed_objects: 935, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(197832), final_nepotism_bytes: Bytes(38162), events: 11220 }, 12, 0xf3d9900eb5a3e314u64),
    (PolicyKind::WeightedPointer, 6, RunTotals { app_ios: 2529, gc_ios: 308, max_footprint: Bytes(458752), partitions: 28, collections: 10, reclaimed_bytes: Bytes(89059), reclaimed_objects: 892, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(208352), final_nepotism_bytes: Bytes(62941), events: 10553 }, 10, 0x60221a075cc9cc24u64),
    (PolicyKind::WeightedPointer, 7, RunTotals { app_ios: 2222, gc_ios: 255, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(117272), reclaimed_objects: 1110, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(196713), final_nepotism_bytes: Bytes(45350), events: 8627 }, 11, 0x5a0aebf3a6855828u64),
    (PolicyKind::WeightedPointer, 8, RunTotals { app_ios: 2499, gc_ios: 284, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(119364), reclaimed_objects: 1109, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(188559), final_nepotism_bytes: Bytes(34216), events: 10960 }, 12, 0x0ddfa881b0cc0128u64),
    (PolicyKind::WeightedPointer, 9, RunTotals { app_ios: 2296, gc_ios: 321, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(102483), reclaimed_objects: 933, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(224694), final_nepotism_bytes: Bytes(45119), events: 10423 }, 11, 0x4d7791ac0d3913eeu64),
    (PolicyKind::UpdatedPointer, 0, RunTotals { app_ios: 2639, gc_ios: 368, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(106848), reclaimed_objects: 1058, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(207024), final_nepotism_bytes: Bytes(48641), events: 11630 }, 12, 0x93a231df09e46e48u64),
    (PolicyKind::UpdatedPointer, 1, RunTotals { app_ios: 2339, gc_ios: 279, max_footprint: Bytes(442368), partitions: 27, collections: 11, reclaimed_bytes: Bytes(105870), reclaimed_objects: 1047, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(225964), final_nepotism_bytes: Bytes(67415), events: 9423 }, 11, 0x7a30cde8df5b3077u64),
    (PolicyKind::UpdatedPointer, 2, RunTotals { app_ios: 2548, gc_ios: 370, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(113332), reclaimed_objects: 1142, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(252560), final_nepotism_bytes: Bytes(74922), events: 10074 }, 12, 0x3dbbbdd3ecea04c9u64),
    (PolicyKind::UpdatedPointer, 3, RunTotals { app_ios: 2652, gc_ios: 329, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(107712), reclaimed_objects: 1004, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(186065), final_nepotism_bytes: Bytes(37660), events: 10160 }, 12, 0xf5e8edb87898ab89u64),
    (PolicyKind::UpdatedPointer, 4, RunTotals { app_ios: 2178, gc_ios: 264, max_footprint: Bytes(475136), partitions: 29, collections: 9, reclaimed_bytes: Bytes(85954), reclaimed_objects: 867, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(210989), final_nepotism_bytes: Bytes(63895), events: 9024 }, 9, 0x3a77e8acb041496bu64),
    (PolicyKind::UpdatedPointer, 5, RunTotals { app_ios: 2678, gc_ios: 291, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(121932), reclaimed_objects: 1200, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(171217), final_nepotism_bytes: Bytes(40015), events: 11220 }, 12, 0x7a706a54cc7ed4bau64),
    (PolicyKind::UpdatedPointer, 6, RunTotals { app_ios: 2530, gc_ios: 307, max_footprint: Bytes(458752), partitions: 28, collections: 10, reclaimed_bytes: Bytes(93043), reclaimed_objects: 937, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(204368), final_nepotism_bytes: Bytes(63701), events: 10553 }, 10, 0xdc0317ebc598be2cu64),
    (PolicyKind::UpdatedPointer, 7, RunTotals { app_ios: 2193, gc_ios: 299, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(107170), reclaimed_objects: 983, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(206815), final_nepotism_bytes: Bytes(49195), events: 8627 }, 11, 0x645cb02f1de1b584u64),
    (PolicyKind::UpdatedPointer, 8, RunTotals { app_ios: 2459, gc_ios: 285, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(121407), reclaimed_objects: 1206, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(186516), final_nepotism_bytes: Bytes(23850), events: 10960 }, 12, 0x93c10dd8209056bdu64),
    (PolicyKind::UpdatedPointer, 9, RunTotals { app_ios: 2326, gc_ios: 368, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(100468), reclaimed_objects: 914, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(226709), final_nepotism_bytes: Bytes(38104), events: 10423 }, 11, 0xcbecd7ecd78a94cbu64),
    (PolicyKind::MostGarbage, 0, RunTotals { app_ios: 2678, gc_ios: 285, max_footprint: Bytes(425984), partitions: 26, collections: 12, reclaimed_bytes: Bytes(135377), reclaimed_objects: 1283, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(178495), final_nepotism_bytes: Bytes(57547), events: 11630 }, 12, 0xd5e2aa04394c478bu64),
    (PolicyKind::MostGarbage, 1, RunTotals { app_ios: 2338, gc_ios: 234, max_footprint: Bytes(425984), partitions: 26, collections: 11, reclaimed_bytes: Bytes(123827), reclaimed_objects: 992, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(208007), final_nepotism_bytes: Bytes(47839), events: 9423 }, 11, 0xa5587a1f1f44398fu64),
    (PolicyKind::MostGarbage, 2, RunTotals { app_ios: 2667, gc_ios: 322, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(76085), reclaimed_objects: 599, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(289807), final_nepotism_bytes: Bytes(79004), events: 10074 }, 12, 0x1922f81d99125a31u64),
    (PolicyKind::MostGarbage, 3, RunTotals { app_ios: 2648, gc_ios: 204, max_footprint: Bytes(425984), partitions: 26, collections: 12, reclaimed_bytes: Bytes(145884), reclaimed_objects: 1216, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(147893), final_nepotism_bytes: Bytes(28493), events: 10160 }, 12, 0x3940ea46be3deb7bu64),
    (PolicyKind::MostGarbage, 4, RunTotals { app_ios: 2161, gc_ios: 176, max_footprint: Bytes(458752), partitions: 28, collections: 9, reclaimed_bytes: Bytes(106405), reclaimed_objects: 990, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(190538), final_nepotism_bytes: Bytes(62204), events: 9024 }, 9, 0xee10b0c50b49c408u64),
    (PolicyKind::MostGarbage, 5, RunTotals { app_ios: 2706, gc_ios: 313, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(116694), reclaimed_objects: 1144, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(176455), final_nepotism_bytes: Bytes(46454), events: 11220 }, 12, 0x572da8651f2310d2u64),
    (PolicyKind::MostGarbage, 6, RunTotals { app_ios: 2553, gc_ios: 287, max_footprint: Bytes(458752), partitions: 28, collections: 10, reclaimed_bytes: Bytes(94888), reclaimed_objects: 778, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(202523), final_nepotism_bytes: Bytes(64198), events: 10553 }, 10, 0xb09ed37cd5c3aea7u64),
    (PolicyKind::MostGarbage, 7, RunTotals { app_ios: 2239, gc_ios: 418, max_footprint: Bytes(573440), partitions: 35, collections: 11, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(313985), final_nepotism_bytes: Bytes(102383), events: 8627 }, 11, 0x00d9d049aff907d5u64),
    (PolicyKind::MostGarbage, 8, RunTotals { app_ios: 2473, gc_ios: 247, max_footprint: Bytes(425984), partitions: 26, collections: 12, reclaimed_bytes: Bytes(142761), reclaimed_objects: 1348, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(165162), final_nepotism_bytes: Bytes(27987), events: 10960 }, 12, 0x36e0c647cf349cc6u64),
    (PolicyKind::MostGarbage, 9, RunTotals { app_ios: 2338, gc_ios: 360, max_footprint: Bytes(475136), partitions: 29, collections: 11, reclaimed_bytes: Bytes(82222), reclaimed_objects: 647, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(244955), final_nepotism_bytes: Bytes(68242), events: 10423 }, 11, 0x866e81ee07ac57fcu64),
    (PolicyKind::RoundRobin, 0, RunTotals { app_ios: 2657, gc_ios: 344, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(125595), reclaimed_objects: 1008, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(188277), final_nepotism_bytes: Bytes(54536), events: 11630 }, 12, 0x2b45cb5f773552a9u64),
    (PolicyKind::RoundRobin, 1, RunTotals { app_ios: 2347, gc_ios: 269, max_footprint: Bytes(442368), partitions: 27, collections: 11, reclaimed_bytes: Bytes(107028), reclaimed_objects: 981, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(224806), final_nepotism_bytes: Bytes(58433), events: 9423 }, 11, 0xb00bde9eb9eda095u64),
    (PolicyKind::RoundRobin, 2, RunTotals { app_ios: 2634, gc_ios: 281, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(125318), reclaimed_objects: 1107, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(240574), final_nepotism_bytes: Bytes(75559), events: 10074 }, 12, 0x2b45cb5f773552a9u64),
    (PolicyKind::RoundRobin, 3, RunTotals { app_ios: 2604, gc_ios: 318, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(118483), reclaimed_objects: 1097, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(175294), final_nepotism_bytes: Bytes(57011), events: 10160 }, 12, 0x2b45cb5f773552a9u64),
    (PolicyKind::RoundRobin, 4, RunTotals { app_ios: 2177, gc_ios: 205, max_footprint: Bytes(458752), partitions: 28, collections: 9, reclaimed_bytes: Bytes(104249), reclaimed_objects: 803, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(192694), final_nepotism_bytes: Bytes(65964), events: 9024 }, 9, 0x96c992bb414577e4u64),
    (PolicyKind::RoundRobin, 5, RunTotals { app_ios: 2706, gc_ios: 351, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(103506), reclaimed_objects: 1027, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(189643), final_nepotism_bytes: Bytes(42446), events: 11220 }, 12, 0x2b45cb5f773552a9u64),
    (PolicyKind::RoundRobin, 6, RunTotals { app_ios: 2526, gc_ios: 314, max_footprint: Bytes(475136), partitions: 29, collections: 10, reclaimed_bytes: Bytes(83927), reclaimed_objects: 675, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(213484), final_nepotism_bytes: Bytes(67137), events: 10553 }, 10, 0x5fcb211ac4b1b5ceu64),
    (PolicyKind::RoundRobin, 7, RunTotals { app_ios: 2218, gc_ios: 188, max_footprint: Bytes(425984), partitions: 26, collections: 11, reclaimed_bytes: Bytes(142636), reclaimed_objects: 1013, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(171349), final_nepotism_bytes: Bytes(37349), events: 8627 }, 11, 0xb00bde9eb9eda095u64),
    (PolicyKind::RoundRobin, 8, RunTotals { app_ios: 2490, gc_ios: 266, max_footprint: Bytes(425984), partitions: 26, collections: 12, reclaimed_bytes: Bytes(133496), reclaimed_objects: 1178, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(174427), final_nepotism_bytes: Bytes(23711), events: 10960 }, 12, 0x2b45cb5f773552a9u64),
    (PolicyKind::RoundRobin, 9, RunTotals { app_ios: 2346, gc_ios: 269, max_footprint: Bytes(442368), partitions: 27, collections: 11, reclaimed_bytes: Bytes(125360), reclaimed_objects: 843, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(201817), final_nepotism_bytes: Bytes(42509), events: 10423 }, 11, 0xb00bde9eb9eda095u64),
    (PolicyKind::Occupancy, 0, RunTotals { app_ios: 2710, gc_ios: 490, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(44551), reclaimed_objects: 451, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(269321), final_nepotism_bytes: Bytes(85095), events: 11630 }, 12, 0x454231e5b2255d58u64),
    (PolicyKind::Occupancy, 1, RunTotals { app_ios: 2385, gc_ios: 369, max_footprint: Bytes(507904), partitions: 31, collections: 11, reclaimed_bytes: Bytes(48776), reclaimed_objects: 478, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(283058), final_nepotism_bytes: Bytes(110088), events: 9423 }, 11, 0x65ae991dc8a8b95au64),
    (PolicyKind::Occupancy, 2, RunTotals { app_ios: 2662, gc_ios: 435, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(53801), reclaimed_objects: 470, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(312091), final_nepotism_bytes: Bytes(66056), events: 10074 }, 12, 0x48abe59128a1a979u64),
    (PolicyKind::Occupancy, 3, RunTotals { app_ios: 2690, gc_ios: 417, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(45472), reclaimed_objects: 378, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(248305), final_nepotism_bytes: Bytes(76862), events: 10160 }, 12, 0x7683682d7cdd8de3u64),
    (PolicyKind::Occupancy, 4, RunTotals { app_ios: 2176, gc_ios: 256, max_footprint: Bytes(507904), partitions: 31, collections: 9, reclaimed_bytes: Bytes(47103), reclaimed_objects: 313, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(249840), final_nepotism_bytes: Bytes(84565), events: 9024 }, 9, 0xa5da190bce44f97bu64),
    (PolicyKind::Occupancy, 5, RunTotals { app_ios: 2734, gc_ios: 396, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(63565), reclaimed_objects: 626, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(229584), final_nepotism_bytes: Bytes(62903), events: 11220 }, 12, 0xbee4ad80b18f2a7cu64),
    (PolicyKind::Occupancy, 6, RunTotals { app_ios: 2584, gc_ios: 364, max_footprint: Bytes(524288), partitions: 32, collections: 10, reclaimed_bytes: Bytes(37684), reclaimed_objects: 294, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(259727), final_nepotism_bytes: Bytes(82386), events: 10553 }, 10, 0x82ec1d7a7b681e63u64),
    (PolicyKind::Occupancy, 7, RunTotals { app_ios: 2239, gc_ios: 418, max_footprint: Bytes(573440), partitions: 35, collections: 11, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(313985), final_nepotism_bytes: Bytes(102383), events: 8627 }, 11, 0x00d9d049aff907d5u64),
    (PolicyKind::Occupancy, 8, RunTotals { app_ios: 2556, gc_ios: 411, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(46501), reclaimed_objects: 464, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(261422), final_nepotism_bytes: Bytes(53628), events: 10960 }, 12, 0x4926cb69226b9702u64),
    (PolicyKind::Occupancy, 9, RunTotals { app_ios: 2364, gc_ios: 405, max_footprint: Bytes(540672), partitions: 33, collections: 11, reclaimed_bytes: Bytes(25958), reclaimed_objects: 183, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(301219), final_nepotism_bytes: Bytes(83222), events: 10423 }, 11, 0x762dac9d72943e42u64),
    (PolicyKind::YnyMutated, 0, RunTotals { app_ios: 2679, gc_ios: 436, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(64371), reclaimed_objects: 643, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(249501), final_nepotism_bytes: Bytes(52695), events: 11630 }, 12, 0x4dff1a13d776c5b2u64),
    (PolicyKind::YnyMutated, 1, RunTotals { app_ios: 2324, gc_ios: 285, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(101617), reclaimed_objects: 1001, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(230217), final_nepotism_bytes: Bytes(53795), events: 9423 }, 11, 0x6afe30efa5a4c14eu64),
    (PolicyKind::YnyMutated, 2, RunTotals { app_ios: 2610, gc_ios: 344, max_footprint: Bytes(475136), partitions: 29, collections: 12, reclaimed_bytes: Bytes(87181), reclaimed_objects: 874, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(278711), final_nepotism_bytes: Bytes(61583), events: 10074 }, 12, 0xde2e37ed7c6cf0edu64),
    (PolicyKind::YnyMutated, 3, RunTotals { app_ios: 2635, gc_ios: 390, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(73214), reclaimed_objects: 724, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(220563), final_nepotism_bytes: Bytes(83366), events: 10160 }, 12, 0x55e0786e672d9c2eu64),
    (PolicyKind::YnyMutated, 4, RunTotals { app_ios: 2167, gc_ios: 313, max_footprint: Bytes(491520), partitions: 30, collections: 9, reclaimed_bytes: Bytes(65601), reclaimed_objects: 663, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(231342), final_nepotism_bytes: Bytes(32322), events: 9024 }, 9, 0x3f093b02882555e7u64),
    (PolicyKind::YnyMutated, 5, RunTotals { app_ios: 2739, gc_ios: 356, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(82004), reclaimed_objects: 811, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(211145), final_nepotism_bytes: Bytes(52093), events: 11220 }, 12, 0x489cce3889c66024u64),
    (PolicyKind::YnyMutated, 6, RunTotals { app_ios: 2554, gc_ios: 352, max_footprint: Bytes(491520), partitions: 30, collections: 10, reclaimed_bytes: Bytes(56562), reclaimed_objects: 564, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(240849), final_nepotism_bytes: Bytes(81098), events: 10553 }, 10, 0x4197896ef44b6c61u64),
    (PolicyKind::YnyMutated, 7, RunTotals { app_ios: 2180, gc_ios: 355, max_footprint: Bytes(491520), partitions: 30, collections: 11, reclaimed_bytes: Bytes(72987), reclaimed_objects: 735, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(240998), final_nepotism_bytes: Bytes(78754), events: 8627 }, 11, 0xc18aa743939dab12u64),
    (PolicyKind::YnyMutated, 8, RunTotals { app_ios: 2500, gc_ios: 366, max_footprint: Bytes(475136), partitions: 29, collections: 12, reclaimed_bytes: Bytes(79456), reclaimed_objects: 803, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(228467), final_nepotism_bytes: Bytes(38789), events: 10960 }, 12, 0xd9c7f1cdc7d5ea0au64),
    (PolicyKind::YnyMutated, 9, RunTotals { app_ios: 2314, gc_ios: 381, max_footprint: Bytes(475136), partitions: 29, collections: 11, reclaimed_bytes: Bytes(81881), reclaimed_objects: 803, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(245296), final_nepotism_bytes: Bytes(66767), events: 10423 }, 11, 0xdc06eabe7c8aab0du64),
    (PolicyKind::Generational, 0, RunTotals { app_ios: 2660, gc_ios: 248, max_footprint: Bytes(557056), partitions: 34, collections: 12, reclaimed_bytes: Bytes(3966), reclaimed_objects: 40, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(309906), final_nepotism_bytes: Bytes(86848), events: 11630 }, 12, 0xbb25b9b376f08f04u64),
    (PolicyKind::Generational, 1, RunTotals { app_ios: 2349, gc_ios: 129, max_footprint: Bytes(557056), partitions: 34, collections: 11, reclaimed_bytes: Bytes(475), reclaimed_objects: 5, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(331359), final_nepotism_bytes: Bytes(85684), events: 9423 }, 11, 0x6fc1d99f033b0266u64),
    (PolicyKind::Generational, 2, RunTotals { app_ios: 2649, gc_ios: 219, max_footprint: Bytes(557056), partitions: 34, collections: 12, reclaimed_bytes: Bytes(1418), reclaimed_objects: 16, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(364474), final_nepotism_bytes: Bytes(106678), events: 10074 }, 12, 0xf5b302fc0c3bd97au64),
    (PolicyKind::Generational, 3, RunTotals { app_ios: 2660, gc_ios: 210, max_footprint: Bytes(557056), partitions: 34, collections: 12, reclaimed_bytes: Bytes(5538), reclaimed_objects: 55, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(288239), final_nepotism_bytes: Bytes(56298), events: 10160 }, 12, 0x2cab09985787fdd1u64),
    (PolicyKind::Generational, 4, RunTotals { app_ios: 2191, gc_ios: 159, max_footprint: Bytes(557056), partitions: 34, collections: 9, reclaimed_bytes: Bytes(2030), reclaimed_objects: 20, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(294913), final_nepotism_bytes: Bytes(72750), events: 9024 }, 9, 0x339219a22fecb888u64),
    (PolicyKind::Generational, 5, RunTotals { app_ios: 2728, gc_ios: 251, max_footprint: Bytes(557056), partitions: 34, collections: 12, reclaimed_bytes: Bytes(2192), reclaimed_objects: 21, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(290957), final_nepotism_bytes: Bytes(69314), events: 11220 }, 12, 0x81a4811dbbc022c1u64),
    (PolicyKind::Generational, 6, RunTotals { app_ios: 2565, gc_ios: 231, max_footprint: Bytes(540672), partitions: 33, collections: 10, reclaimed_bytes: Bytes(10410), reclaimed_objects: 24, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(287001), final_nepotism_bytes: Bytes(98465), events: 10553 }, 10, 0xb12d71c520d0cc0eu64),
    (PolicyKind::Generational, 7, RunTotals { app_ios: 2206, gc_ios: 223, max_footprint: Bytes(557056), partitions: 34, collections: 11, reclaimed_bytes: Bytes(756), reclaimed_objects: 7, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(313229), final_nepotism_bytes: Bytes(99862), events: 8627 }, 11, 0x24cf0396f0398978u64),
    (PolicyKind::Generational, 8, RunTotals { app_ios: 2574, gc_ios: 202, max_footprint: Bytes(557056), partitions: 34, collections: 12, reclaimed_bytes: Bytes(645), reclaimed_objects: 7, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(307278), final_nepotism_bytes: Bytes(68747), events: 10960 }, 12, 0x346f15a179c3e6b5u64),
    (PolicyKind::Generational, 9, RunTotals { app_ios: 2409, gc_ios: 257, max_footprint: Bytes(557056), partitions: 34, collections: 11, reclaimed_bytes: Bytes(2790), reclaimed_objects: 27, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(324387), final_nepotism_bytes: Bytes(107827), events: 10423 }, 11, 0xc5b4bb834c5dbf8du64),
    (PolicyKind::UpdatedDecay, 0, RunTotals { app_ios: 2667, gc_ios: 458, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(74804), reclaimed_objects: 751, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(239068), final_nepotism_bytes: Bytes(43726), events: 11630 }, 12, 0x3b502b0d6e994285u64),
    (PolicyKind::UpdatedDecay, 1, RunTotals { app_ios: 2367, gc_ios: 326, max_footprint: Bytes(475136), partitions: 29, collections: 11, reclaimed_bytes: Bytes(78106), reclaimed_objects: 782, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(253728), final_nepotism_bytes: Bytes(64916), events: 9423 }, 11, 0x4d566f2a07583dd8u64),
    (PolicyKind::UpdatedDecay, 2, RunTotals { app_ios: 2611, gc_ios: 401, max_footprint: Bytes(507904), partitions: 31, collections: 12, reclaimed_bytes: Bytes(64171), reclaimed_objects: 653, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(301721), final_nepotism_bytes: Bytes(82512), events: 10074 }, 12, 0x7c5ddd9cc8842174u64),
    (PolicyKind::UpdatedDecay, 3, RunTotals { app_ios: 2626, gc_ios: 418, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(68343), reclaimed_objects: 599, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(225434), final_nepotism_bytes: Bytes(44276), events: 10160 }, 12, 0x57dcecc55ccc5fdbu64),
    (PolicyKind::UpdatedDecay, 4, RunTotals { app_ios: 2174, gc_ios: 346, max_footprint: Bytes(507904), partitions: 31, collections: 9, reclaimed_bytes: Bytes(47026), reclaimed_objects: 472, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(249917), final_nepotism_bytes: Bytes(71133), events: 9024 }, 9, 0xbc38bd21c5a9562cu64),
    (PolicyKind::UpdatedDecay, 5, RunTotals { app_ios: 2699, gc_ios: 376, max_footprint: Bytes(491520), partitions: 30, collections: 12, reclaimed_bytes: Bytes(70670), reclaimed_objects: 693, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(222479), final_nepotism_bytes: Bytes(46773), events: 11220 }, 12, 0xa444ee718f6f9c51u64),
    (PolicyKind::UpdatedDecay, 6, RunTotals { app_ios: 2558, gc_ios: 333, max_footprint: Bytes(491520), partitions: 30, collections: 10, reclaimed_bytes: Bytes(66401), reclaimed_objects: 663, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(231010), final_nepotism_bytes: Bytes(84092), events: 10553 }, 10, 0x4e178eccae89fe16u64),
    (PolicyKind::UpdatedDecay, 7, RunTotals { app_ios: 2228, gc_ios: 376, max_footprint: Bytes(507904), partitions: 31, collections: 11, reclaimed_bytes: Bytes(60106), reclaimed_objects: 523, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(253879), final_nepotism_bytes: Bytes(60257), events: 8627 }, 11, 0xbb6d0e64148e75ebu64),
    (PolicyKind::UpdatedDecay, 8, RunTotals { app_ios: 2477, gc_ios: 358, max_footprint: Bytes(475136), partitions: 29, collections: 12, reclaimed_bytes: Bytes(80029), reclaimed_objects: 812, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(227894), final_nepotism_bytes: Bytes(33195), events: 10960 }, 12, 0x85acda1b8771b5b4u64),
    (PolicyKind::UpdatedDecay, 9, RunTotals { app_ios: 2337, gc_ios: 427, max_footprint: Bytes(491520), partitions: 30, collections: 11, reclaimed_bytes: Bytes(70019), reclaimed_objects: 693, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(257158), final_nepotism_bytes: Bytes(54244), events: 10423 }, 11, 0x8fbdeebdb8c139bbu64),
    (PolicyKind::Composite, 0, RunTotals { app_ios: 2614, gc_ios: 381, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(100215), reclaimed_objects: 1003, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(213657), final_nepotism_bytes: Bytes(64411), events: 11630 }, 12, 0xd84c765fba0df51au64),
    (PolicyKind::Composite, 1, RunTotals { app_ios: 2347, gc_ios: 297, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(100854), reclaimed_objects: 999, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(230980), final_nepotism_bytes: Bytes(65833), events: 9423 }, 11, 0xe4a2854aedce941du64),
    (PolicyKind::Composite, 2, RunTotals { app_ios: 2548, gc_ios: 370, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(113332), reclaimed_objects: 1142, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(252560), final_nepotism_bytes: Bytes(74922), events: 10074 }, 12, 0x3dbbbdd3ecea04c9u64),
    (PolicyKind::Composite, 3, RunTotals { app_ios: 2652, gc_ios: 329, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(107712), reclaimed_objects: 1004, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(186065), final_nepotism_bytes: Bytes(37660), events: 10160 }, 12, 0xf5e8edb87898ab89u64),
    (PolicyKind::Composite, 4, RunTotals { app_ios: 2178, gc_ios: 264, max_footprint: Bytes(475136), partitions: 29, collections: 9, reclaimed_bytes: Bytes(85954), reclaimed_objects: 867, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(210989), final_nepotism_bytes: Bytes(63895), events: 9024 }, 9, 0x3a77e8acb041496bu64),
    (PolicyKind::Composite, 5, RunTotals { app_ios: 2678, gc_ios: 291, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(121932), reclaimed_objects: 1200, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(171217), final_nepotism_bytes: Bytes(40015), events: 11220 }, 12, 0x7a706a54cc7ed4bau64),
    (PolicyKind::Composite, 6, RunTotals { app_ios: 2530, gc_ios: 307, max_footprint: Bytes(458752), partitions: 28, collections: 10, reclaimed_bytes: Bytes(93043), reclaimed_objects: 937, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(204368), final_nepotism_bytes: Bytes(63701), events: 10553 }, 10, 0xdc0317ebc598be2cu64),
    (PolicyKind::Composite, 7, RunTotals { app_ios: 2189, gc_ios: 300, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(106752), reclaimed_objects: 979, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(207233), final_nepotism_bytes: Bytes(49965), events: 8627 }, 11, 0x600816c2ab040c94u64),
    (PolicyKind::Composite, 8, RunTotals { app_ios: 2459, gc_ios: 274, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(120320), reclaimed_objects: 1194, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(187603), final_nepotism_bytes: Bytes(33277), events: 10960 }, 12, 0x5e3e12975c200eadu64),
    (PolicyKind::Composite, 9, RunTotals { app_ios: 2326, gc_ios: 368, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(100468), reclaimed_objects: 914, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(226709), final_nepotism_bytes: Bytes(38104), events: 10423 }, 11, 0xcbecd7ecd78a94cbu64),
    (PolicyKind::AdaptiveMeta, 0, RunTotals { app_ios: 2639, gc_ios: 368, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(106848), reclaimed_objects: 1058, final_live_bytes: Bytes(216484), final_garbage_bytes: Bytes(207024), final_nepotism_bytes: Bytes(48641), events: 11630 }, 12, 0x93a231df09e46e48u64),
    (PolicyKind::AdaptiveMeta, 1, RunTotals { app_ios: 2339, gc_ios: 279, max_footprint: Bytes(442368), partitions: 27, collections: 11, reclaimed_bytes: Bytes(105870), reclaimed_objects: 1047, final_live_bytes: Bytes(196570), final_garbage_bytes: Bytes(225964), final_nepotism_bytes: Bytes(67415), events: 9423 }, 11, 0x7a30cde8df5b3077u64),
    (PolicyKind::AdaptiveMeta, 2, RunTotals { app_ios: 2548, gc_ios: 370, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(113332), reclaimed_objects: 1142, final_live_bytes: Bytes(170153), final_garbage_bytes: Bytes(252560), final_nepotism_bytes: Bytes(74922), events: 10074 }, 12, 0x3dbbbdd3ecea04c9u64),
    (PolicyKind::AdaptiveMeta, 3, RunTotals { app_ios: 2652, gc_ios: 329, max_footprint: Bytes(458752), partitions: 28, collections: 12, reclaimed_bytes: Bytes(107712), reclaimed_objects: 1004, final_live_bytes: Bytes(235558), final_garbage_bytes: Bytes(186065), final_nepotism_bytes: Bytes(37660), events: 10160 }, 12, 0xf5e8edb87898ab89u64),
    (PolicyKind::AdaptiveMeta, 4, RunTotals { app_ios: 2178, gc_ios: 264, max_footprint: Bytes(475136), partitions: 29, collections: 9, reclaimed_bytes: Bytes(85954), reclaimed_objects: 867, final_live_bytes: Bytes(233786), final_garbage_bytes: Bytes(210989), final_nepotism_bytes: Bytes(63895), events: 9024 }, 9, 0x3a77e8acb041496bu64),
    (PolicyKind::AdaptiveMeta, 5, RunTotals { app_ios: 2678, gc_ios: 291, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(121932), reclaimed_objects: 1200, final_live_bytes: Bytes(247830), final_garbage_bytes: Bytes(171217), final_nepotism_bytes: Bytes(40015), events: 11220 }, 12, 0x7a706a54cc7ed4bau64),
    (PolicyKind::AdaptiveMeta, 6, RunTotals { app_ios: 2530, gc_ios: 307, max_footprint: Bytes(458752), partitions: 28, collections: 10, reclaimed_bytes: Bytes(93043), reclaimed_objects: 937, final_live_bytes: Bytes(230989), final_garbage_bytes: Bytes(204368), final_nepotism_bytes: Bytes(63701), events: 10553 }, 10, 0xdc0317ebc598be2cu64),
    (PolicyKind::AdaptiveMeta, 7, RunTotals { app_ios: 2193, gc_ios: 299, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(107170), reclaimed_objects: 983, final_live_bytes: Bytes(226453), final_garbage_bytes: Bytes(206815), final_nepotism_bytes: Bytes(49195), events: 8627 }, 11, 0x645cb02f1de1b584u64),
    (PolicyKind::AdaptiveMeta, 8, RunTotals { app_ios: 2459, gc_ios: 285, max_footprint: Bytes(442368), partitions: 27, collections: 12, reclaimed_bytes: Bytes(121407), reclaimed_objects: 1206, final_live_bytes: Bytes(216487), final_garbage_bytes: Bytes(186516), final_nepotism_bytes: Bytes(23850), events: 10960 }, 12, 0x93c10dd8209056bdu64),
    (PolicyKind::AdaptiveMeta, 9, RunTotals { app_ios: 2326, gc_ios: 368, max_footprint: Bytes(458752), partitions: 28, collections: 11, reclaimed_bytes: Bytes(100468), reclaimed_objects: 914, final_live_bytes: Bytes(207270), final_garbage_bytes: Bytes(226709), final_nepotism_bytes: Bytes(38104), events: 10423 }, 11, 0xcbecd7ecd78a94cbu64),
];

#[rustfmt::skip]
const GOLDEN_PAPER_10PCT: &[Golden] = &[
    (PolicyKind::NoCollection, 0, RunTotals { app_ios: 883, gc_ios: 0, max_footprint: Bytes(1966080), partitions: 5, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(643085), final_nepotism_bytes: Bytes(51867), events: 52654 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 1, RunTotals { app_ios: 719, gc_ios: 0, max_footprint: Bytes(1966080), partitions: 5, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(751941), final_nepotism_bytes: Bytes(38937), events: 57618 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::NoCollection, 2, RunTotals { app_ios: 938, gc_ios: 0, max_footprint: Bytes(1966080), partitions: 5, collections: 0, reclaimed_bytes: Bytes(0), reclaimed_objects: 0, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(738566), final_nepotism_bytes: Bytes(19120), events: 69313 }, 0, 0xcbf29ce484222325u64),
    (PolicyKind::MutatedPartition, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::MutatedPartition, 1, RunTotals { app_ios: 469, gc_ios: 227, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(224900), reclaimed_objects: 2215, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(527041), final_nepotism_bytes: Bytes(79213), events: 57618 }, 3, 0xfd1f0f4381eb0395u64),
    (PolicyKind::MutatedPartition, 2, RunTotals { app_ios: 518, gc_ios: 164, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(411516), reclaimed_objects: 3487, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(327050), final_nepotism_bytes: Bytes(26788), events: 69313 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::Random, 0, RunTotals { app_ios: 629, gc_ios: 143, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(178559), reclaimed_objects: 1774, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(464526), final_nepotism_bytes: Bytes(50919), events: 52654 }, 3, 0xfd1f0f4381eb0395u64),
    (PolicyKind::Random, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::Random, 2, RunTotals { app_ios: 807, gc_ios: 89, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(66829), reclaimed_objects: 670, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(671737), final_nepotism_bytes: Bytes(27506), events: 69313 }, 3, 0x5efeb401d00ba044u64),
    (PolicyKind::WeightedPointer, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::WeightedPointer, 1, RunTotals { app_ios: 339, gc_ios: 205, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(574280), reclaimed_objects: 4392, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(177661), final_nepotism_bytes: Bytes(1742), events: 57618 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::WeightedPointer, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::UpdatedPointer, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::UpdatedPointer, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::UpdatedPointer, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::MostGarbage, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::MostGarbage, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::MostGarbage, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::RoundRobin, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::RoundRobin, 1, RunTotals { app_ios: 339, gc_ios: 205, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(574280), reclaimed_objects: 4392, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(177661), final_nepotism_bytes: Bytes(1742), events: 57618 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::RoundRobin, 2, RunTotals { app_ios: 622, gc_ios: 131, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(486575), reclaimed_objects: 4239, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(251991), final_nepotism_bytes: Bytes(10135), events: 69313 }, 3, 0x9d19bb4bd820c026u64),
    (PolicyKind::Occupancy, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::Occupancy, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::Occupancy, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::YnyMutated, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::YnyMutated, 1, RunTotals { app_ios: 469, gc_ios: 227, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(224900), reclaimed_objects: 2215, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(527041), final_nepotism_bytes: Bytes(79213), events: 57618 }, 3, 0xfd1f0f4381eb0395u64),
    (PolicyKind::YnyMutated, 2, RunTotals { app_ios: 518, gc_ios: 164, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(411516), reclaimed_objects: 3487, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(327050), final_nepotism_bytes: Bytes(26788), events: 69313 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::Generational, 0, RunTotals { app_ios: 629, gc_ios: 143, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(178559), reclaimed_objects: 1774, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(464526), final_nepotism_bytes: Bytes(50919), events: 52654 }, 3, 0xfd1f0f4381eb0395u64),
    (PolicyKind::Generational, 1, RunTotals { app_ios: 469, gc_ios: 227, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(224900), reclaimed_objects: 2215, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(527041), final_nepotism_bytes: Bytes(79213), events: 57618 }, 3, 0xfd1f0f4381eb0395u64),
    (PolicyKind::Generational, 2, RunTotals { app_ios: 807, gc_ios: 89, max_footprint: Bytes(1572864), partitions: 4, collections: 3, reclaimed_bytes: Bytes(66829), reclaimed_objects: 670, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(671737), final_nepotism_bytes: Bytes(27506), events: 69313 }, 3, 0x5efeb401d00ba044u64),
    (PolicyKind::UpdatedDecay, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::UpdatedDecay, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::UpdatedDecay, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::Composite, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::Composite, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::Composite, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::AdaptiveMeta, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::AdaptiveMeta, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::AdaptiveMeta, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
];

#[test]
fn derive_backed_policies_are_bit_identical_on_the_small_config() {
    check(&RunConfig::small(), GOLDEN_SMALL);
}

#[test]
fn derive_backed_policies_are_bit_identical_on_the_paper_config() {
    // The paper geometry at a 10% allocation target: big 8 KB pages, the
    // 200-overwrite trigger, near-parent placement across 384 KB
    // partitions — a different code path mix than the small config.
    let mut cfg = RunConfig::paper(PolicyKind::MostGarbage, 0);
    cfg.workload.target_allocated = Bytes(cfg.workload.target_allocated.0 / 10);
    check(&cfg, GOLDEN_PAPER_10PCT);
}

/// Folds per-run values into one digest (as in `tests/bus_equivalence.rs`).
fn fold_digests(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(0xcbf2_9ce4_8422_2325, |h, d| {
        (h.rotate_left(17) ^ d).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The policies that rank by per-partition score tables, plus the
/// meta-policy that races them.
const SCORED: [PolicyKind; 7] = [
    PolicyKind::MutatedPartition,
    PolicyKind::WeightedPointer,
    PolicyKind::UpdatedPointer,
    PolicyKind::YnyMutated,
    PolicyKind::UpdatedDecay,
    PolicyKind::Composite,
    PolicyKind::AdaptiveMeta,
];

/// `(policy, AllocationBytes(4 KiB), PartitionGrowth)`:
/// `RunConfig::small`, each an `outcome_digest` folded over seeds 0-3.
/// Three `AllocationBytes` cells moved when pointer forwarding began to
/// charge its page writes in `(owner, slot)` order rather than the remembered
/// set's hash order (PR 25): `UpdatedPointer`, `YNY-Mutated` and
/// `AdaptiveMeta`, whose incumbent is `UpdatedPointer` throughout.
#[rustfmt::skip]
const GOLDEN_TRIGGERS: &[(PolicyKind, u64, u64)] = &[
    (PolicyKind::MutatedPartition, 0x275bad2c73974902, 0xef2cc5f027d27af9),
    (PolicyKind::WeightedPointer, 0x76687cac659bda0a, 0x9dddf56e7f8082d9),
    (PolicyKind::UpdatedPointer, 0x3501f9f1d929ed17, 0x0b8b21feec0153a8),
    (PolicyKind::YnyMutated, 0x044ca15a41e702ec, 0xef2cc5f027d27af9),
    (PolicyKind::UpdatedDecay, 0x8ce79f430a00af0e, 0x82e756db3599f734),
    (PolicyKind::Composite, 0x925c87117a9f572d, 0x7ff2992175ae6218),
    (PolicyKind::AdaptiveMeta, 0x3501f9f1d929ed17, 0x0b8b21feec0153a8),
];

#[test]
fn non_default_triggers_select_the_same_victims() {
    let folded = |cfg: RunConfig| {
        fold_digests((0..4u64).map(|seed| {
            outcome_digest(
                &Simulation::builder(&cfg.clone().with_seed(seed))
                    .run()
                    .expect("run"),
            )
        }))
    };
    assert_eq!(GOLDEN_TRIGGERS.len(), SCORED.len());
    for (policy, alloc, growth) in GOLDEN_TRIGGERS {
        let cfg = RunConfig::small().with_policy(*policy);
        assert_eq!(
            folded(
                cfg.clone()
                    .with_trigger(Trigger::AllocationBytes(Bytes::from_kib(4)))
            ),
            *alloc,
            "{policy:?}: AllocationBytes(4 KiB)"
        );
        assert_eq!(
            folded(cfg.with_trigger(Trigger::PartitionGrowth)),
            *growth,
            "{policy:?}: PartitionGrowth"
        );
    }
}

/// `RunConfig::small` with `MostGarbage` driving and [`SCORED`] as
/// shadows, seeds 0-3: one digest per seed over every
/// `(activation, shadow index, pick)`.
#[rustfmt::skip]
const GOLDEN_SHADOW_PICKS: [u64; 4] = [
    0x3e9411c7cb49fc5b, // seed 0: 84 picks over 12 activations
    0xdfcd32f290263b32, // seed 1: 77 picks over 11 activations
    0xac9bc474c447174b, // seed 2: 84 picks over 12 activations
    0x25ba339020264217, // seed 3: 84 picks over 12 activations
];

#[test]
fn shadow_picks_behind_an_oracle_driver_are_unchanged() {
    for (seed, want) in GOLDEN_SHADOW_PICKS.iter().enumerate() {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(seed as u64);
        let race = run_race(&cfg, &SCORED).expect("race");
        let picks = race.records.iter().flat_map(|rec| {
            rec.picks.iter().enumerate().flat_map(|(i, pick)| {
                [
                    rec.activation,
                    i as u64,
                    pick.victim.map_or(u64::MAX, |v| v.index() as u64),
                ]
            })
        });
        assert_eq!(fold_digests(picks), *want, "seed {seed}");
    }
}
