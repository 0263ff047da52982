//! The durable store's ordering contract, held against real process
//! kills: *a generation file in place implies the log up to its safepoint
//! frame is on disk.*
//!
//! `recover_tool crash` persists a run and exits mid-way without closing
//! anything, cutting the store's I/O thread off wherever it was. Whatever
//! generation files that leaves in place, none may describe a state the
//! log read back from the same directory does not reach — recovery restores
//! a generation only where the log holds its safepoint frame, and the
//! newest one in place must always qualify.

use pgc_sim::durable::{read_generation, read_log, scan_snapshots, ScratchDir};
use pgc_sim::{recover, verify};
use pgc_workload::BLOCK_EVENTS;
use std::process::Command;

#[test]
fn no_generation_file_outruns_the_log_at_any_kill_point() {
    // Generations are taken only at `BLOCK_EVENTS` boundaries (this run
    // takes its third at 12,288 and its fifth at 20,480), so the first
    // kill may leave none, and the later ones come after pruning.
    for budget in [6_000, 13_000, 17_000, 21_000, 25_000] {
        let dir = ScratchDir::new("crash-contract");
        let data = dir.join("data");
        let output = Command::new(env!("CARGO_BIN_EXE_recover_tool"))
            .arg("crash")
            .arg(&data)
            .args([&budget.to_string(), "most-garbage", "2"])
            .output()
            .expect("run recover_tool");
        assert!(output.status.success(), "crash at {budget}: {output:?}");

        let log = read_log(&data).expect("read the log");
        let logged = log.trace.events();
        assert!(logged <= budget, "{logged} events logged of {budget}");
        let mut in_place = Vec::new();
        for file in scan_snapshots(&data).expect("scan") {
            let image = read_generation(&file.path).expect("a renamed file is whole");
            assert!(
                image.events_applied <= logged,
                "crash at {budget}: generation {} was taken at event {}, the log ends at {logged}",
                image.generation,
                image.events_applied
            );
            in_place.push(image.generation);
        }
        // The writer holds at most two generations and keeps two landed,
        // so a log that reaches generation n's frame (n >= 3) finds n - 2
        // or a newer one in place, and nothing older than n - 3.
        let newest = log.safepoints.iter().map(|frame| frame.generation).max();
        let newest = newest.unwrap_or(0);
        assert_eq!(
            newest >= 3,
            budget > 3 * BLOCK_EVENTS as u64,
            "crash at {budget}: {:?}",
            log.safepoints
        );
        if newest >= 3 {
            assert!(
                in_place.iter().any(|&g| g + 2 >= newest),
                "crash at {budget}: generation {newest} taken, {in_place:?} in place"
            );
            assert!(
                in_place.iter().all(|&g| g + 3 >= newest),
                "crash at {budget}: generation {newest} taken, {in_place:?} not pruned"
            );
        }
        let recovered = recover(&data).expect("recover");
        assert_eq!(recovered.events_replayed, logged);
        assert_eq!(recovered.snapshot_files_skipped, 0);
        // Restored from the newest generation in place, or replayed from
        // event 0, and every generation in place round-tripped: one digest.
        let verified = verify(&data).expect("verify agrees");
        assert_eq!(verified.snapshot_files_skipped, 0);
    }
}
