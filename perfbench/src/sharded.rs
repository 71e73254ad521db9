//! The shard layer, measured on `serve`'s traced run: each traced request
//! is replayed through a bench-owned 2-shard `ShardedTippers` loaded with
//! the same corpus (one worker thread per shard: the machine's core
//! count). The replay gives the route (`ShardRouter::shard_of_user`) and
//! the hop: the runtime's time for the request minus the unsharded
//! engine's time for the same request.
//!
//! A `sharded` end-to-end workload was tried and dropped: on a 2-core
//! machine the tail of a batch through the runtime follows how quickly
//! the host wakes an idle worker thread, and its p99 moved by up to 2×
//! between runs of one seed, beyond the 0.25 bound of every end-to-end
//! metric.

use tippers::{DataRequest, DataResponse, ShardRouter, ShardSpec, ShardedTippers, SubjectSelector};
use tippers_policy::Timestamp;

use crate::checks::agrees;
use crate::corpus::{self, Corpus};
use crate::ops;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::Report;

/// Shards in the runtime.
pub const SHARDS: usize = 2;

/// The bench-owned runtime the shard replay runs through.
pub struct ShardShadow {
    runtime: ShardedTippers,
    router: ShardRouter,
    route: Samples,
    hop: Samples,
    disagreements: u64,
}

impl ShardShadow {
    /// A 2-shard runtime loaded with the corpus.
    pub fn new(corpus: &Corpus) -> ShardShadow {
        let mut runtime = ShardedTippers::new(
            corpus.ontology.clone(),
            corpus.dbh.model.clone(),
            ops::engine_config(false),
            ShardSpec {
                shards: SHARDS,
                ..ShardSpec::default()
            },
        );
        corpus::load_corpus(&mut runtime, corpus);
        ShardShadow {
            runtime,
            router: ShardRouter::new(SHARDS),
            route: Samples::default(),
            hop: Samples::default(),
            disagreements: 0,
        }
    }

    /// Replays a request the unsharded engine answered in `engine_ns` with
    /// `engine_resp`, recording the route and runtime calls as spans.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        req: &DataRequest,
        now: Timestamp,
        engine_ns: u64,
        engine_resp: &DataResponse,
    ) {
        if let SubjectSelector::One(user) = req.subjects {
            let (owner, ns) = tr.root("shard.route", || self.router.shard_of_user(user));
            std::hint::black_box(owner);
            self.route.push(ns);
        }
        let (resp, ns) = tr.root("shard.handle_request", || {
            self.runtime.handle_request(req, now)
        });
        self.hop.push(ns.saturating_sub(engine_ns));
        let same = resp.results.len() == engine_resp.results.len()
            && resp
                .results
                .iter()
                .zip(&engine_resp.results)
                .all(|(got, want)| got.user == want.user && agrees(&got.decision, &want.decision));
        self.disagreements += u64::from(!same);
    }

    /// Reports the shard metrics and checks that the runtime stayed
    /// healthy and decided as the unsharded engine did.
    pub fn finish(self, report: &mut Report) {
        let stats = self.runtime.stats();
        let faults = stats.down as u64
            + stats.panics
            + stats.stalls
            + stats.restarts
            + stats.restart_losses
            + stats.unavailable_denials
            + stats.unavailable_drops
            + stats.pending_replayed
            + stats.fenced_writes;
        if faults != 0 {
            report.problem(format!(
                "the shard runtime degraded on a clean run: {stats:?}"
            ));
        }
        if self.disagreements != 0 {
            report.problem(format!(
                "{} replayed requests decided differently through the shard runtime",
                self.disagreements
            ));
        }
        report.set("shard.route_ns", self.route.p50());
        report.set("shard.hop_us", self.hop.p50() / 1e3);
        report.set("shard.faults", faults as f64);
    }
}
