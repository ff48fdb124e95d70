//! Processor-sharing discrete-event engine.
//!
//! The model mirrors CUDA semantics closely enough for the paper's
//! pipeline arguments to hold:
//!
//! * **Streams** serialize: a task starts only after the previous task
//!   submitted to the same stream has finished (plus any explicit deps).
//!   FPDT's three streams — compute, host-to-device, device-to-host —
//!   are just three stream ids per simulated GPU.
//! * **Resources** are shared pipes (a node's PCIe link, its IB NIC).
//!   Concurrent transfers on one resource split its bandwidth equally and
//!   re-split whenever a transfer starts or ends — the fair-share behavior
//!   behind the paper's observation that per-GPU H2D copies contend.
//! * **Memory effects**: a task may allocate bytes in a [`memory`] pool at
//!   start and free at end; the engine timestamps these into the pool's
//!   timeline (paper Figures 12/13).
//!
//! [`memory`]: crate::memory

use crate::memory::{PoolId, PoolSet};
use crate::{Result, SimError};
use std::collections::HashMap;

/// Identifies a task in an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) usize);

/// Identifies a serializing stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

/// Identifies a shared bandwidth resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub(crate) usize);

/// What a task does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work {
    /// Occupies its stream for a fixed duration (a kernel).
    Compute {
        /// Duration in seconds.
        seconds: f64,
    },
    /// Moves bytes over a shared resource (a DMA copy or collective hop).
    Transfer {
        /// Payload size in bytes.
        bytes: u64,
        /// The pipe the bytes flow through.
        resource: ResourceId,
    },
    /// Zero-duration synchronization point.
    Event,
}

#[derive(Debug, Clone)]
struct Task {
    name: String,
    stream: StreamId,
    work: Work,
    deps: Vec<TaskId>,
    allocs: Vec<(PoolId, u64, String)>,
    frees: Vec<(PoolId, u64)>,
    start: f64,
    finish: f64,
}

#[derive(Debug)]
struct Running {
    task: usize,
    /// For `Compute`/`Event`: absolute completion time. Unused for transfers.
    ends_at: f64,
    /// For `Transfer`: bytes still to move (including latency preamble).
    remaining: f64,
    resource: Option<usize>,
}

/// Builder returned by [`Engine::task`]; finish with
/// [`TaskBuilder::submit`].
#[derive(Debug)]
pub struct TaskBuilder<'e> {
    engine: &'e mut Engine,
    task: Task,
}

impl<'e> TaskBuilder<'e> {
    /// Adds explicit dependencies (in addition to stream ordering).
    pub fn deps(&mut self, deps: &[TaskId]) -> &mut Self {
        self.task.deps.extend_from_slice(deps);
        self
    }

    /// Allocates `bytes` in `pool` when the task starts.
    pub fn alloc(&mut self, pool: PoolId, bytes: u64, label: &str) -> &mut Self {
        self.task.allocs.push((pool, bytes, label.to_string()));
        self
    }

    /// Frees `bytes` from `pool` when the task finishes.
    pub fn free(&mut self, pool: PoolId, bytes: u64) -> &mut Self {
        self.task.frees.push((pool, bytes));
        self
    }

    /// Registers the task, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] when a dependency, stream, resource
    /// or pool id was not issued by this engine.
    pub fn submit(&mut self) -> Result<TaskId> {
        let t = std::mem::replace(
            &mut self.task,
            Task {
                name: String::new(),
                stream: StreamId(0),
                work: Work::Event,
                deps: Vec::new(),
                allocs: Vec::new(),
                frees: Vec::new(),
                start: 0.0,
                finish: 0.0,
            },
        );
        self.engine.validate_and_push(t)
    }
}

/// The kind of work an executed task performed, for trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A fixed-duration kernel on its stream.
    Compute,
    /// A byte move over a shared resource.
    Transfer,
    /// A zero-duration synchronization point.
    Event,
}

/// One constant-rate slice of a transfer's fair-share bandwidth: between
/// [`from`](BwShare::from) and [`until`](BwShare::until) the transfer moved
/// bytes at exactly [`rate`](BwShare::rate). The engine re-splits resource
/// bandwidth whenever any transfer starts or ends, so a contended copy's
/// timeline is a sequence of these slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwShare {
    /// Interval start, seconds.
    pub from: f64,
    /// Interval end, seconds.
    pub until: f64,
    /// Bandwidth granted during the interval, bytes/s.
    pub rate: f64,
}

/// One executed task, for timeline/trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task name as submitted.
    pub name: String,
    /// Name of the stream it ran on.
    pub stream: String,
    /// Start time, seconds.
    pub start: f64,
    /// Finish time, seconds.
    pub finish: f64,
    /// What the task did.
    pub kind: TaskKind,
    /// Payload size for transfers, `None` otherwise.
    pub bytes: Option<u64>,
    /// Resource name the bytes flowed through, `None` for non-transfers.
    pub resource: Option<String>,
    /// Fair-share bandwidth timeline for transfers (adjacent equal-rate
    /// slices coalesced). Empty for non-transfers.
    pub shares: Vec<BwShare>,
}

impl TaskRecord {
    /// A compute record with no transfer detail — convenient for building
    /// synthetic event logs in tests and tools.
    pub fn compute(name: &str, stream: &str, start: f64, finish: f64) -> Self {
        TaskRecord {
            name: name.to_string(),
            stream: stream.to_string(),
            start,
            finish,
            kind: TaskKind::Compute,
            bytes: None,
            resource: None,
            shares: Vec::new(),
        }
    }

    /// A transfer record moving `bytes` over `resource` at a single
    /// constant rate implied by the duration.
    pub fn transfer(
        name: &str,
        stream: &str,
        start: f64,
        finish: f64,
        bytes: u64,
        resource: &str,
    ) -> Self {
        let rate = if finish > start {
            bytes as f64 / (finish - start)
        } else {
            0.0
        };
        TaskRecord {
            name: name.to_string(),
            stream: stream.to_string(),
            start,
            finish,
            kind: TaskKind::Transfer,
            bytes: Some(bytes),
            resource: Some(resource.to_string()),
            shares: vec![BwShare {
                from: start,
                until: finish,
                rate,
            }],
        }
    }

    /// Task duration in seconds.
    pub fn duration(&self) -> f64 {
        (self.finish - self.start).max(0.0)
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Total simulated time from 0 to the last task completion, seconds.
    pub makespan: f64,
    /// Final state of all memory pools (peaks, timelines).
    pub pools: PoolSet,
    /// One record per task, indexed by [`TaskId`].
    records: Vec<TaskRecord>,
    streams: Vec<String>,
}

impl SimReport {
    /// Finish time of a task.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for an id not in this run.
    pub fn finish_time(&self, id: TaskId) -> Result<f64> {
        self.records
            .get(id.0)
            .map(|r| r.finish)
            .ok_or(SimError::UnknownId {
                kind: "task",
                id: id.0,
            })
    }

    /// Every executed task with its stream and times, in submission order —
    /// the raw material for Gantt charts and Chrome traces.
    pub fn task_records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Stream names in registration order — gives trace exporters a stable
    /// track ordering independent of which streams happened to run tasks.
    pub fn streams(&self) -> &[String] {
        &self.streams
    }
}

/// The discrete-event engine. See the [module docs](self) for the model.
#[derive(Debug, Default)]
pub struct Engine {
    tasks: Vec<Task>,
    streams: Vec<String>,
    resources: Vec<(String, f64, f64)>, // (name, bandwidth B/s, latency s)
    pools: PoolSet,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a serializing stream (e.g. `"gpu3.h2d"`).
    pub fn add_stream(&mut self, name: &str) -> StreamId {
        self.streams.push(name.to_string());
        StreamId(self.streams.len() - 1)
    }

    /// Registers a shared bandwidth resource. `latency` is charged to every
    /// transfer as a fixed preamble.
    pub fn add_resource(&mut self, name: &str, bandwidth: f64, latency: f64) -> ResourceId {
        self.resources.push((name.to_string(), bandwidth, latency));
        ResourceId(self.resources.len() - 1)
    }

    /// Registers a memory pool; see [`PoolSet::add_pool`].
    pub fn add_pool(&mut self, name: &str, capacity: Option<u64>) -> PoolId {
        self.pools.add_pool(name, capacity)
    }

    /// Starts building a task on `stream`. Use the returned builder for
    /// dependencies and memory effects; call `submit` to register.
    pub fn task(&mut self, name: &str, stream: StreamId, work: Work) -> TaskBuilder<'_> {
        TaskBuilder {
            task: Task {
                name: name.to_string(),
                stream,
                work,
                deps: Vec::new(),
                allocs: Vec::new(),
                frees: Vec::new(),
                start: 0.0,
                finish: 0.0,
            },
            engine: self,
        }
    }

    /// Shorthand for a task with no deps and no memory effects.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a bad stream/resource id.
    pub fn add_task(&mut self, name: &str, stream: StreamId, work: Work) -> Result<TaskId> {
        self.task(name, stream, work).submit()
    }

    fn validate_and_push(&mut self, t: Task) -> Result<TaskId> {
        if t.stream.0 >= self.streams.len() {
            return Err(SimError::UnknownId {
                kind: "stream",
                id: t.stream.0,
            });
        }
        if let Work::Transfer { resource, .. } = t.work {
            if resource.0 >= self.resources.len() {
                return Err(SimError::UnknownId {
                    kind: "resource",
                    id: resource.0,
                });
            }
        }
        for d in &t.deps {
            if d.0 >= self.tasks.len() {
                return Err(SimError::UnknownId {
                    kind: "task",
                    id: d.0,
                });
            }
        }
        for (p, _, _) in &t.allocs {
            if !self.pools.contains(*p) {
                return Err(SimError::UnknownId {
                    kind: "pool",
                    id: p.0,
                });
            }
        }
        for (p, _) in &t.frees {
            if !self.pools.contains(*p) {
                return Err(SimError::UnknownId {
                    kind: "pool",
                    id: p.0,
                });
            }
        }
        self.tasks.push(t);
        Ok(TaskId(self.tasks.len() - 1))
    }

    /// Executes the task graph to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DependencyCycle`] if tasks remain blocked
    /// forever, [`SimError::NegativeUsage`] when frees exceed allocations,
    /// or [`SimError::InvalidConfig`] for a non-positive resource
    /// bandwidth used by a transfer.
    pub fn run(&mut self) -> Result<SimReport> {
        for (name, bw, _) in &self.resources {
            if *bw <= 0.0 {
                return Err(SimError::InvalidConfig {
                    what: format!("resource {name} has non-positive bandwidth {bw}"),
                });
            }
        }
        let n = self.tasks.len();
        let mut pools = self.pools.clone_reset();
        // stream cursor: index of next unstarted task per stream, in
        // submission order per stream.
        let mut stream_queues: Vec<Vec<usize>> = vec![Vec::new(); self.streams.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            stream_queues[t.stream.0].push(i);
        }
        let mut stream_pos = vec![0usize; self.streams.len()];
        let mut done = vec![false; n];
        let mut running: Vec<Running> = Vec::new();
        let mut completed = 0usize;
        let mut now = 0.0f64;
        // Per-task fair-share bandwidth history (transfers only).
        let mut shares: Vec<Vec<BwShare>> = vec![Vec::new(); n];

        let dep_ready = |done: &[bool], t: &Task| t.deps.iter().all(|d| done[d.0]);

        loop {
            // Start every stream-head task whose deps are satisfied.
            let mut started_any = true;
            while started_any {
                started_any = false;
                for s in 0..self.streams.len() {
                    let pos = stream_pos[s];
                    if pos >= stream_queues[s].len() {
                        continue;
                    }
                    let ti = stream_queues[s][pos];
                    // Already running?
                    if running.iter().any(|r| r.task == ti) {
                        continue;
                    }
                    if !dep_ready(&done, &self.tasks[ti]) {
                        continue;
                    }
                    // Start it.
                    let t = &mut self.tasks[ti];
                    t.start = now;
                    for (p, bytes, label) in &t.allocs {
                        pools.alloc(*p, *bytes, label, now)?;
                    }
                    let r = match t.work {
                        Work::Compute { seconds } => Running {
                            task: ti,
                            ends_at: now + seconds.max(0.0),
                            remaining: 0.0,
                            resource: None,
                        },
                        Work::Event => Running {
                            task: ti,
                            ends_at: now,
                            remaining: 0.0,
                            resource: None,
                        },
                        Work::Transfer { bytes, resource } => {
                            let (_, bw, lat) = self.resources[resource.0];
                            // Fold latency into an equivalent byte preamble
                            // so processor sharing applies uniformly.
                            let eff = bytes as f64 + lat * bw;
                            Running {
                                task: ti,
                                ends_at: f64::INFINITY,
                                remaining: eff,
                                resource: Some(resource.0),
                            }
                        }
                    };
                    running.push(r);
                    started_any = true;
                }
            }

            if running.is_empty() {
                if completed == n {
                    break;
                }
                return Err(SimError::DependencyCycle {
                    stuck: n - completed,
                });
            }

            // Current fair-share rate per resource.
            let mut active_per_resource: HashMap<usize, usize> = HashMap::new();
            for r in &running {
                if let Some(res) = r.resource {
                    *active_per_resource.entry(res).or_insert(0) += 1;
                }
            }
            let rate = |res: usize| -> f64 {
                let (_, bw, _) = self.resources[res];
                bw / active_per_resource[&res] as f64
            };

            // Time to next completion.
            let mut dt = f64::INFINITY;
            for r in &running {
                let until = match r.resource {
                    None => r.ends_at - now,
                    Some(res) => r.remaining / rate(res),
                };
                dt = dt.min(until.max(0.0));
            }
            debug_assert!(dt.is_finite());
            now += dt;

            // Advance transfers and collect completions.
            let mut finished: Vec<usize> = Vec::new();
            for r in &mut running {
                match r.resource {
                    None => {
                        if r.ends_at <= now + 1e-15 {
                            finished.push(r.task);
                        }
                    }
                    Some(res) => {
                        let rate = rate(res);
                        if dt > 0.0 {
                            // Extend the share timeline, coalescing with the
                            // previous slice when the rate is unchanged.
                            match shares[r.task].last_mut() {
                                Some(last) if (last.rate - rate).abs() <= 1e-9 * rate => {
                                    last.until = now;
                                }
                                _ => shares[r.task].push(BwShare {
                                    from: now - dt,
                                    until: now,
                                    rate,
                                }),
                            }
                        }
                        r.remaining -= rate * dt;
                        if r.remaining <= 1e-9 {
                            finished.push(r.task);
                        }
                    }
                }
            }
            running.retain(|r| !finished.contains(&r.task));
            for ti in finished {
                let t = &mut self.tasks[ti];
                t.finish = now;
                done[ti] = true;
                completed += 1;
                // advance that task's stream cursor
                let s = t.stream.0;
                stream_pos[s] += 1;
                for (p, bytes) in &self.tasks[ti].frees.clone() {
                    pools.free(*p, *bytes, now)?;
                }
            }
        }

        let records = self
            .tasks
            .iter()
            .zip(shares)
            .map(|(t, shares)| {
                let (kind, bytes, resource) = match t.work {
                    Work::Compute { .. } => (TaskKind::Compute, None, None),
                    Work::Event => (TaskKind::Event, None, None),
                    Work::Transfer { bytes, resource } => (
                        TaskKind::Transfer,
                        Some(bytes),
                        Some(self.resources[resource.0].0.clone()),
                    ),
                };
                TaskRecord {
                    name: t.name.clone(),
                    stream: self.streams[t.stream.0].clone(),
                    start: t.start,
                    finish: t.finish,
                    kind,
                    bytes,
                    resource,
                    shares,
                }
            })
            .collect();
        Ok(SimReport {
            makespan: now,
            pools,
            records,
            streams: self.streams.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_time(r: &SimReport, id: TaskId) -> f64 {
        r.task_records()[id.0].start
    }

    #[test]
    fn single_compute_task() {
        let mut e = Engine::new();
        let s = e.add_stream("c");
        let t = e.add_task("k", s, Work::Compute { seconds: 2.0 }).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.makespan, 2.0);
        assert_eq!(r.finish_time(t).unwrap(), 2.0);
        assert_eq!(start_time(&r, t), 0.0);
        assert_eq!(r.task_records()[t.0].name, "k");
        assert_eq!(r.task_records()[t.0].stream, "c");
    }

    #[test]
    fn finish_time_of_an_id_from_another_run_is_unknown() {
        let mut big = Engine::new();
        let s = big.add_stream("c");
        big.add_task("a", s, Work::Event).unwrap();
        let foreign = big.add_task("b", s, Work::Event).unwrap();
        let mut small = Engine::new();
        let s = small.add_stream("c");
        small.add_task("a", s, Work::Event).unwrap();
        let r = small.run().unwrap();
        assert!(matches!(
            r.finish_time(foreign),
            Err(SimError::UnknownId {
                kind: "task",
                id: 1
            })
        ));
    }

    #[test]
    fn stream_serializes_tasks() {
        let mut e = Engine::new();
        let s = e.add_stream("c");
        let _a = e.add_task("a", s, Work::Compute { seconds: 1.0 }).unwrap();
        let b = e.add_task("b", s, Work::Compute { seconds: 1.0 }).unwrap();
        let r = e.run().unwrap();
        assert_eq!(start_time(&r, b), 1.0);
        assert_eq!(r.makespan, 2.0);
    }

    #[test]
    fn parallel_streams_overlap() {
        let mut e = Engine::new();
        let s1 = e.add_stream("c1");
        let s2 = e.add_stream("c2");
        e.add_task("a", s1, Work::Compute { seconds: 3.0 }).unwrap();
        e.add_task("b", s2, Work::Compute { seconds: 2.0 }).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.makespan, 3.0);
    }

    #[test]
    fn dependency_across_streams() {
        let mut e = Engine::new();
        let copy = e.add_stream("h2d");
        let comp = e.add_stream("compute");
        let pcie = e.add_resource("pcie", 10.0, 0.0); // 10 B/s
        let f = e
            .add_task(
                "fetch",
                copy,
                Work::Transfer {
                    bytes: 20,
                    resource: pcie,
                },
            )
            .unwrap();
        let mut b = e.task("attn", comp, Work::Compute { seconds: 1.0 });
        b.deps(&[f]);
        let k = b.submit().unwrap();
        let r = e.run().unwrap();
        assert!((start_time(&r, k) - 2.0).abs() < 1e-9);
        assert!((r.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_bandwidth_contention() {
        // Two simultaneous 10-byte transfers on a 10 B/s pipe take 2s
        // (each gets 5 B/s), not 1s.
        let mut e = Engine::new();
        let s1 = e.add_stream("g0.h2d");
        let s2 = e.add_stream("g1.h2d");
        let pcie = e.add_resource("pcie", 10.0, 0.0);
        e.add_task(
            "x0",
            s1,
            Work::Transfer {
                bytes: 10,
                resource: pcie,
            },
        )
        .unwrap();
        e.add_task(
            "x1",
            s2,
            Work::Transfer {
                bytes: 10,
                resource: pcie,
            },
        )
        .unwrap();
        let r = e.run().unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn staggered_transfers_rebalance() {
        // t0: A starts alone (10 B/s). t=0.5: B arrives; both share 5 B/s.
        // A has 5 bytes left at t=0.5 -> finishes at t=1.5.
        // B (10 bytes) then gets full bandwidth for its remaining 5 bytes:
        // 0.5..1.5 at 5 B/s moves 5, remaining 5 at 10 B/s = 0.5 -> t=2.0.
        let mut e = Engine::new();
        let s1 = e.add_stream("g0.h2d");
        let s2 = e.add_stream("g1.h2d");
        let s2b = e.add_stream("g1.pre");
        let pcie = e.add_resource("pcie", 10.0, 0.0);
        let a = e
            .add_task(
                "a",
                s1,
                Work::Transfer {
                    bytes: 10,
                    resource: pcie,
                },
            )
            .unwrap();
        let delay = e
            .add_task("delay", s2b, Work::Compute { seconds: 0.5 })
            .unwrap();
        let mut bb = e.task(
            "b",
            s2,
            Work::Transfer {
                bytes: 10,
                resource: pcie,
            },
        );
        bb.deps(&[delay]);
        let b = bb.submit().unwrap();
        let r = e.run().unwrap();
        assert!((r.finish_time(a).unwrap() - 1.5).abs() < 1e-9);
        assert!((r.finish_time(b).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_latency_preamble() {
        let mut e = Engine::new();
        let s = e.add_stream("h2d");
        let link = e.add_resource("link", 100.0, 0.25); // latency worth 25 bytes
        let t = e
            .add_task(
                "x",
                s,
                Work::Transfer {
                    bytes: 75,
                    resource: link,
                },
            )
            .unwrap();
        let r = e.run().unwrap();
        assert!((r.finish_time(t).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn event_tasks_are_instant() {
        let mut e = Engine::new();
        let s = e.add_stream("c");
        let a = e.add_task("a", s, Work::Compute { seconds: 1.0 }).unwrap();
        let mut b = e.task("sync", s, Work::Event);
        b.deps(&[a]);
        let ev = b.submit().unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.finish_time(ev).unwrap(), 1.0);
    }

    #[test]
    fn memory_alloc_free_tracked() {
        let mut e = Engine::new();
        let s = e.add_stream("c");
        let hbm = e.add_pool("hbm0", Some(100));
        let mut a = e.task("big", s, Work::Compute { seconds: 1.0 });
        a.alloc(hbm, 60, "activations").free(hbm, 60);
        a.submit().unwrap();
        let mut b = e.task("bigger", s, Work::Compute { seconds: 1.0 });
        b.alloc(hbm, 80, "spike");
        b.submit().unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.pools.peak(hbm).unwrap(), 80);
        // first task freed its 60 before the second allocated
        assert_eq!(r.pools.current(hbm).unwrap(), 80);
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut e = Engine::new();
        let s = e.add_stream("c");
        assert!(matches!(
            e.add_task("x", StreamId(9), Work::Event),
            Err(SimError::UnknownId { kind: "stream", .. })
        ));
        assert!(matches!(
            e.add_task(
                "x",
                s,
                Work::Transfer {
                    bytes: 1,
                    resource: ResourceId(3)
                }
            ),
            Err(SimError::UnknownId {
                kind: "resource",
                ..
            })
        ));
        let mut b = e.task("x", s, Work::Event);
        b.deps(&[TaskId(42)]);
        assert!(matches!(
            b.submit(),
            Err(SimError::UnknownId { kind: "task", .. })
        ));
    }

    #[test]
    fn zero_bandwidth_rejected_at_run() {
        let mut e = Engine::new();
        let s = e.add_stream("c");
        let bad = e.add_resource("dead", 0.0, 0.0);
        e.add_task(
            "x",
            s,
            Work::Transfer {
                bytes: 1,
                resource: bad,
            },
        )
        .unwrap();
        assert!(matches!(e.run(), Err(SimError::InvalidConfig { .. })));
    }

    #[test]
    fn diamond_dependency_graph() {
        //    a
        //   / \
        //  b   c     (parallel streams)
        //   \ /
        //    d
        let mut e = Engine::new();
        let s1 = e.add_stream("s1");
        let s2 = e.add_stream("s2");
        let a = e.add_task("a", s1, Work::Compute { seconds: 1.0 }).unwrap();
        let mut bb = e.task("b", s1, Work::Compute { seconds: 2.0 });
        bb.deps(&[a]);
        let b = bb.submit().unwrap();
        let mut cc = e.task("c", s2, Work::Compute { seconds: 3.0 });
        cc.deps(&[a]);
        let c = cc.submit().unwrap();
        let mut dd = e.task("d", s1, Work::Compute { seconds: 1.0 });
        dd.deps(&[b, c]);
        let d = dd.submit().unwrap();
        let r = e.run().unwrap();
        assert_eq!(start_time(&r, d), 4.0); // waits for c at t=1+3
        assert_eq!(r.makespan, 5.0);
    }

    #[test]
    fn empty_engine_runs() {
        let mut e = Engine::new();
        let r = e.run().unwrap();
        assert_eq!(r.makespan, 0.0);
        assert!(r.task_records().is_empty());
    }
}

#[cfg(test)]
mod record_tests {
    use super::*;

    #[test]
    fn records_carry_work_detail() {
        let mut e = Engine::new();
        let c = e.add_stream("compute");
        let h = e.add_stream("h2d");
        let pcie = e.add_resource("pcie.h2d", 10.0, 0.0);
        e.add_task("k", c, Work::Compute { seconds: 1.0 }).unwrap();
        e.add_task(
            "x",
            h,
            Work::Transfer {
                bytes: 20,
                resource: pcie,
            },
        )
        .unwrap();
        let r = e.run().unwrap();
        let k = &r.task_records()[0];
        assert_eq!(k.kind, TaskKind::Compute);
        assert_eq!((k.bytes, k.resource.as_deref()), (None, None));
        assert!(k.shares.is_empty());
        let x = &r.task_records()[1];
        assert_eq!(x.kind, TaskKind::Transfer);
        assert_eq!(x.bytes, Some(20));
        assert_eq!(x.resource.as_deref(), Some("pcie.h2d"));
        // Uncontended: one coalesced slice at full bandwidth.
        assert_eq!(x.shares.len(), 1);
        assert!((x.shares[0].rate - 10.0).abs() < 1e-9);
        assert!((x.shares[0].from - x.start).abs() < 1e-12);
        assert!((x.shares[0].until - x.finish).abs() < 1e-12);
        assert_eq!(r.streams(), ["compute".to_string(), "h2d".to_string()]);
    }

    #[test]
    fn shares_split_under_contention() {
        // Same staggered scenario as `staggered_transfers_rebalance`:
        // a runs alone at 10 B/s for 0.5s, shares 5 B/s until t=1.5;
        // b shares 5 B/s until a ends, then finishes alone at 10 B/s.
        let mut e = Engine::new();
        let s1 = e.add_stream("g0.h2d");
        let s2 = e.add_stream("g1.h2d");
        let s2b = e.add_stream("g1.pre");
        let pcie = e.add_resource("pcie", 10.0, 0.0);
        e.add_task(
            "a",
            s1,
            Work::Transfer {
                bytes: 10,
                resource: pcie,
            },
        )
        .unwrap();
        let delay = e
            .add_task("delay", s2b, Work::Compute { seconds: 0.5 })
            .unwrap();
        let mut bb = e.task(
            "b",
            s2,
            Work::Transfer {
                bytes: 10,
                resource: pcie,
            },
        );
        bb.deps(&[delay]);
        bb.submit().unwrap();
        let r = e.run().unwrap();
        let a = &r.task_records()[0];
        let b = &r.task_records()[2];
        let slices = |rec: &TaskRecord| -> Vec<(f64, f64, f64)> {
            rec.shares
                .iter()
                .map(|s| (s.from, s.until, s.rate))
                .collect()
        };
        let close = |got: &[(f64, f64, f64)], want: &[(f64, f64, f64)]| {
            assert_eq!(got.len(), want.len(), "{got:?} vs {want:?}");
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g.0 - w.0).abs() < 1e-9
                        && (g.1 - w.1).abs() < 1e-9
                        && (g.2 - w.2).abs() < 1e-9,
                    "{got:?} vs {want:?}"
                );
            }
        };
        close(&slices(a), &[(0.0, 0.5, 10.0), (0.5, 1.5, 5.0)]);
        close(&slices(b), &[(0.5, 1.5, 5.0), (1.5, 2.0, 10.0)]);
        // Bytes moved per the share timeline equal the payload.
        for rec in [a, b] {
            let moved: f64 = rec.shares.iter().map(|s| (s.until - s.from) * s.rate).sum();
            assert!((moved - 10.0).abs() < 1e-6, "moved {moved}");
        }
    }
}
