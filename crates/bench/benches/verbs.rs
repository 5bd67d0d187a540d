//! Standalone benches for the verb pipeline: wall-clock cost of
//! simulating one operation end-to-end (the figure harness issues
//! millions).

use bench::harness::bench;
use cluster::{ClusterConfig, Endpoint, Testbed};
use rnicsim::{RKey, Sge, VerbKind, WorkRequest, WrId};
use simcore::SimTime;

const OPS: u64 = 50_000;

fn bench_post() {
    for (name, kind) in [
        ("post/write_64b", VerbKind::Write),
        ("post/read_64b", VerbKind::Read),
        ("post/faa", VerbKind::FetchAdd { delta: 1 }),
    ] {
        let mut tb = Testbed::new(ClusterConfig::two_machines());
        let src = tb.register(0, 1, 1 << 16);
        let dst = tb.register(1, 1, 1 << 16);
        let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
        let payload = if matches!(kind, VerbKind::Write | VerbKind::Read) { 64 } else { 8 };
        let mut wr = WorkRequest {
            wr_id: WrId(0),
            kind,
            sgl: Sge::new(src, 0, payload).into(),
            remote: Some((RKey(dst.0 as u64), 0)),
            signaled: true,
        };
        let mut t = SimTime::ZERO;
        let mut i = 0u64;
        bench(name, OPS, || {
            let mut last = SimTime::ZERO;
            for _ in 0..OPS {
                wr.wr_id = WrId(i);
                let cqe = tb.post_one_ref(t, conn, &wr);
                t = cqe.at;
                i += 1;
                last = cqe.at;
            }
            last
        });
    }
    // A 16-WR doorbell batch, template built once and posted repeatedly.
    let mut tb = Testbed::new(ClusterConfig::two_machines());
    let src = tb.register(0, 1, 1 << 16);
    let dst = tb.register(1, 1, 1 << 16);
    let conn = tb.connect(Endpoint::affine(0, 1), Endpoint::affine(1, 1));
    let wrs: Vec<WorkRequest> = (0..16)
        .map(|i| WorkRequest {
            wr_id: WrId(i),
            kind: VerbKind::Write,
            sgl: Sge::new(src, i * 64, 64).into(),
            remote: Some((RKey(dst.0 as u64), i * 64)),
            signaled: i == 15,
        })
        .collect();
    let mut t = SimTime::ZERO;
    bench("post/doorbell_batch_16", OPS, || {
        for _ in 0..OPS / 16 {
            t = tb.post(t, conn, &wrs).last().unwrap().at;
        }
        t
    });
}

fn main() {
    bench_post();
}
