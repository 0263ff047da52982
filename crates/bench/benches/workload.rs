//! Micro-benchmarks for the workload generator and the trace codec.

use pgc_bench::microbench::Runner;
use pgc_workload::{
    read_trace, write_trace, EncodedTrace, Event, SyntheticWorkload, WorkloadParams,
};
use std::hint::black_box;

fn small_events() -> Vec<Event> {
    SyntheticWorkload::new(WorkloadParams::small().with_seed(3))
        .unwrap()
        .collect()
}

fn main() {
    let r = Runner::new();

    r.bench("workload/generate_small", || {
        let g = SyntheticWorkload::new(WorkloadParams::small().with_seed(3)).unwrap();
        black_box(g.count())
    });
    r.bench("workload/generate_assembly_small", || {
        let g =
            pgc_workload::AssemblyWorkload::new(pgc_workload::AssemblyParams::small().with_seed(3))
                .unwrap();
        black_box(g.count())
    });

    let events = small_events();
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &events).unwrap();

    r.bench_batched(
        "trace/encode",
        || Vec::with_capacity(encoded.len()),
        |mut buf| {
            write_trace(&mut buf, &events).unwrap();
            black_box(buf.len())
        },
    );
    r.bench("trace/decode", || {
        black_box(read_trace(encoded.as_slice()).unwrap().len())
    });

    // The shared-trace engine: record straight into the contiguous buffer,
    // and walk it with the zero-allocation cursor (what every policy worker
    // pays per replayed event).
    r.bench("encoded/record_small", || {
        let trace = EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap();
        black_box(trace.events())
    });
    let trace = EncodedTrace::record(WorkloadParams::small().with_seed(3)).unwrap();
    r.bench("encoded/cursor_replay", || {
        let mut n = 0u64;
        let mut cursor = trace.cursor();
        while let Some(event) = cursor.next_event().unwrap() {
            black_box(&event);
            n += 1;
        }
        black_box(n)
    });
    // Batched decode: same stream, but decoded a block at a time into one
    // reused struct-of-arrays buffer (the encoded replay path).
    r.bench_batched(
        "encoded/decode_block",
        || pgc_workload::EventBlock::with_capacity(pgc_workload::BLOCK_EVENTS),
        |mut block| {
            let mut n = 0u64;
            let mut cursor = trace.cursor();
            while cursor.next_block(&mut block).unwrap() > 0 {
                for i in 0..block.len() {
                    black_box(&block.get(i));
                    n += 1;
                }
            }
            black_box(n)
        },
    );
}
