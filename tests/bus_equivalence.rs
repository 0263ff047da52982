//! Bus-equivalence regression tests for the barrier event bus refactor.
//!
//! The golden values below were produced by the pre-refactor code (the
//! commit before the event bus landed), replaying the identical fixed-seed
//! workloads through the old `observe_write`/`observe_allocation` barrier
//! path. The bus-driven replay must reproduce every `RunTotals` field and
//! the exact victim sequence (FNV-1a digest) bit for bit: the typed event
//! stream is a refactor of the delivery mechanism, not of the simulated
//! semantics.
//!
//! Shadow scoreboards ride the same bus as bystanders; the second test
//! checks at integration level that registering every honest policy as a
//! shadow perturbs nothing about the driver's run.

use pgc::odb::PolicyKind;
use pgc::sim::shadow::run_race;
use pgc::sim::{RunConfig, RunTotals, Simulation};
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

/// `(policy, seed, pre-refactor totals, collection count, victim digest)`.
type Golden = (PolicyKind, u64, RunTotals, usize, u64);

fn check(cfg: &RunConfig, golden: &[Golden]) {
    for (policy, seed, totals, n_collections, digest) in golden {
        let cfg = cfg.clone().with_policy(*policy).with_seed(*seed);
        let out = Simulation::builder(&cfg).run().expect("run");
        assert_eq!(
            out.totals, *totals,
            "{policy:?} seed {seed}: totals diverged from the pre-bus replay"
        );
        let victims: Vec<u32> = out.collections.iter().map(|c| c.victim.index()).collect();
        assert_eq!(victims.len(), *n_collections, "{policy:?} seed {seed}");
        assert_eq!(
            fnv1a64(&victims),
            *digest,
            "{policy:?} seed {seed}: victim sequence diverged from the pre-bus replay"
        );
    }
}

#[rustfmt::skip]
const GOLDEN_SMALL: &[Golden] = &[
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
];

#[rustfmt::skip]
const GOLDEN_PAPER_10PCT: &[Golden] = &[
    (PolicyKind::MostGarbage, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::MostGarbage, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::MostGarbage, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::MostGarbage, 3, RunTotals { app_ios: 398, gc_ios: 187, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(582834), reclaimed_objects: 4472, final_live_bytes: Bytes(469917), final_garbage_bytes: Bytes(130841), final_nepotism_bytes: Bytes(2386), events: 50278 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::MostGarbage, 4, RunTotals { app_ios: 322, gc_ios: 77, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(602281), reclaimed_objects: 4077, final_live_bytes: Bytes(450138), final_garbage_bytes: Bytes(145842), final_nepotism_bytes: Bytes(10260), events: 57715 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::UpdatedPointer, 0, RunTotals { app_ios: 387, gc_ios: 188, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(514275), reclaimed_objects: 4474, final_live_bytes: Bytes(571457), final_garbage_bytes: Bytes(128810), final_nepotism_bytes: Bytes(23466), events: 52654 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::UpdatedPointer, 1, RunTotals { app_ios: 341, gc_ios: 208, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(577957), reclaimed_objects: 4422, final_live_bytes: Bytes(448877), final_garbage_bytes: Bytes(173984), final_nepotism_bytes: Bytes(66609), events: 57618 }, 3, 0x9f19854a6eada506u64),
    (PolicyKind::UpdatedPointer, 2, RunTotals { app_ios: 465, gc_ios: 214, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(508914), reclaimed_objects: 4458, final_live_bytes: Bytes(487149), final_garbage_bytes: Bytes(229652), final_nepotism_bytes: Bytes(9237), events: 69313 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::UpdatedPointer, 3, RunTotals { app_ios: 398, gc_ios: 187, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(582834), reclaimed_objects: 4472, final_live_bytes: Bytes(469917), final_garbage_bytes: Bytes(130841), final_nepotism_bytes: Bytes(2386), events: 50278 }, 3, 0xff1ed9421877e875u64),
    (PolicyKind::UpdatedPointer, 4, RunTotals { app_ios: 322, gc_ios: 77, max_footprint: Bytes(1179648), partitions: 3, collections: 3, reclaimed_bytes: Bytes(602281), reclaimed_objects: 4077, final_live_bytes: Bytes(450138), final_garbage_bytes: Bytes(145842), final_nepotism_bytes: Bytes(10260), events: 57715 }, 3, 0x9f19854a6eada506u64),
];

#[test]
fn bus_replay_is_bit_identical_to_pre_refactor_small_config() {
    check(&RunConfig::small(), GOLDEN_SMALL);
}

#[test]
fn bus_replay_is_bit_identical_to_pre_refactor_paper_config() {
    // The paper geometry at a 10% allocation target: big 8 KB pages, the
    // 200-overwrite trigger, near-parent placement across 384 KB
    // partitions — a different code path mix than the small config.
    let mut cfg = RunConfig::paper(PolicyKind::MostGarbage, 0);
    cfg.workload.target_allocated = Bytes(cfg.workload.target_allocated.0 / 10);
    check(&cfg, GOLDEN_PAPER_10PCT);
}

#[test]
fn shadow_scoreboards_do_not_perturb_the_driver() {
    let shadows = [
        PolicyKind::MutatedPartition,
        PolicyKind::Random,
        PolicyKind::WeightedPointer,
        PolicyKind::UpdatedPointer,
        PolicyKind::MostGarbage,
    ];
    for seed in [0u64, 5, 9] {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(seed);
        let plain = Simulation::builder(&cfg).run().expect("plain run");
        let race = run_race(&cfg, &shadows).expect("race run");
        assert_eq!(plain.totals, race.outcome.totals, "seed {seed}");
        assert_eq!(plain.collections, race.outcome.collections, "seed {seed}");
        assert_eq!(
            race.records.len() as u64,
            plain.totals.collections,
            "seed {seed}: one race record per collection"
        );
    }
}
