//! Per-layer probes: host time of each crate's public functions, timed
//! from here. Every traced run executes the whole set, so the numbers do
//! not depend on which workload was traced; each probe is sized to tens
//! of milliseconds so the set fits beside the traced workload.
//!
//! Micro paths (`*_ns`) are min-of-k over at least 10^5 calls: the
//! minimum is the least-disturbed batch, which is what a change to the
//! code moves. Run-sized paths (`*_us`, `*_ms`, `*_s`, ratios of runs) are
//! the minimum of a few runs for the same reason. `black_box` keeps the
//! optimizer from deleting the measured call.

use crate::host;
use crate::serve_workloads::{single_key_request, stat, Daemon, WarmMix};
use retcon::{Engine, RetconConfig};
use retcon_explore::{run_campaigns, suite};
use retcon_isa::table::{BlockTable, EpochMap};
use retcon_isa::{Addr, BinOp, CmpOp, CoreSet, Operand, ProgramBuilder, Reg};
use retcon_lab::runner::run_jobs_cached;
use retcon_lab::{csv, engine, Dataset, ExperimentRecord, ReportCache, ResultStore, RunKey};
use retcon_mem::{AccessKind, CoreId, MemConfig, MemorySystem};
use retcon_obs::{EventKind, Log2Hist};
use retcon_serve::proto::record_line;
use retcon_serve::{Request, Response};
use retcon_sim::json::Json;
use retcon_sim::{content_hash128, SimConfig, SimReport};
use retcon_workloads::{
    machine_for, run_spec_sized, run_spec_traced_sized, sequential_baseline, System, Workload,
};
use std::hint::black_box;
use std::time::Instant;

/// The seed of every probe input. Probes measure the layers, not the
/// workload under trace, so their inputs do not follow `--seed`: the
/// exact counts among them then compare equal across any two runs.
const PROBE_SEED: u64 = 42;

/// Nanoseconds per call: the fastest of `rounds` batches of `batch`.
fn min_ns_per_call(rounds: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds of the fastest of `rounds` calls, and the last call's result.
fn min_s<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..rounds {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (best, last.expect("rounds > 0"))
}

/// Runs every probe: `(metric, value)` in declaration order.
pub fn run_all() -> Result<Vec<(String, f64)>, String> {
    let mut p = Probes {
        metrics: Vec::new(),
    };
    p.isa()?;
    p.mem();
    p.core();
    p.htm()?;
    p.sim_and_obs()?;
    p.workloads()?;
    p.lab()?;
    p.serve()?;
    p.explore();
    Ok(p.metrics)
}

struct Probes {
    metrics: Vec<(String, f64)>,
}

impl Probes {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    // ------------------------------------------------------------------ isa

    fn isa(&mut self) -> Result<(), String> {
        // A 4k-instruction program of 512 eight-instruction blocks;
        // `build` includes validation.
        const BLOCKS: usize = 512;
        let (secs, program) = min_s(5, || {
            let mut b = ProgramBuilder::new();
            let blocks: Vec<_> = (0..BLOCKS).map(|_| b.block()).collect();
            b.jump(blocks[0]);
            for (i, &block) in blocks.iter().enumerate() {
                b.select(block);
                b.imm(Reg(1), i as u64);
                b.tx_begin();
                b.load(Reg(2), Reg(1), 0);
                b.add_imm(Reg(2), 1);
                b.store(Operand::Reg(Reg(2)), Reg(1), 0);
                b.tx_commit();
                b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
                match blocks.get(i + 1) {
                    Some(&next) => b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), next, block),
                    None => b.halt(),
                };
            }
            b.build()
        });
        let program = program.map_err(|e| format!("probe program: {e:?}"))?;
        let instrs: usize = program.blocks.iter().map(|b| b.instrs.len()).sum();
        self.put("isa.program_build_ns_per_instr", secs * 1e9 / instrs as f64);

        fn coreset_mix<const N: usize>() -> f64 {
            let cap = CoreSet::<N>::CAPACITY;
            let mut a = CoreSet::<N>::EMPTY;
            let mut b = CoreSet::<N>::solo(cap - 1);
            let mut i = 0usize;
            // One "op" = the insert/union/intersects/iter mix below.
            min_ns_per_call(10, 20_000, || {
                i = (i + 7) % cap;
                a.insert(i);
                b.insert((i * 3) % cap);
                let u = a.union(b);
                let hit = u.intersects(black_box(b));
                let sum: usize = u.without(i).iter().take(4).sum();
                black_box((hit, sum));
                if i < 7 {
                    a.clear();
                    b.clear();
                }
            })
        }
        self.put("isa.coreset1_op_ns", coreset_mix::<1>());
        self.put("isa.coreset16_op_ns", coreset_mix::<16>());

        let mut table: BlockTable<u64> = BlockTable::new();
        let mut key = 0u64;
        self.put(
            "isa.blocktable_entry_ns",
            min_ns_per_call(10, 50_000, || {
                key = (key + 97) & 0xffff;
                *table.entry(black_box(key)) += 1;
            }),
        );
        let mut map: EpochMap<u64> = EpochMap::new();
        // A transaction-sized footprint: eight inserts, then the O(1)
        // clear. Reported per insert.
        self.put(
            "isa.epochmap_insert_clear_ns",
            min_ns_per_call(10, 20_000, || {
                for k in 0..8u64 {
                    black_box(map.insert(k * 8, k));
                }
                map.clear();
            }) / 8.0,
        );
        Ok(())
    }

    // ------------------------------------------------------------------ mem

    fn mem(&mut self) {
        fn l1_hit<const N: usize>(cores: usize) -> f64 {
            let mut ms: MemorySystem<N> = MemorySystem::new(MemConfig::default(), cores);
            let core = CoreId(cores - 1);
            ms.access(core, Addr(0), AccessKind::Read, false);
            min_ns_per_call(10, 50_000, || {
                let plan = ms.plan(core, black_box(Addr(0)), AccessKind::Read);
                black_box(ms.access_planned(&plan, false));
            })
        }
        self.put("mem.plan_access_l1_hit_ns", l1_hit::<1>(32));
        self.put("mem.plan_access_l1_hit_n16_ns", l1_hit::<16>(1024));

        // Cold blocks: directory allocation plus the L1/L2 fill.
        let mut next = 0u64;
        let mut cold: MemorySystem = MemorySystem::new(MemConfig::default(), 32);
        self.put(
            "mem.access_miss_ns",
            min_ns_per_call(10, 10_000, || {
                next += 8;
                black_box(cold.access(CoreId(0), Addr(next), AccessKind::Read, false));
            }),
        );

        let mut ms: MemorySystem = MemorySystem::new(MemConfig::default(), 32);
        ms.access(CoreId(1), Addr(0), AccessKind::Write, true);
        self.put(
            "mem.conflict_mask_ns",
            min_ns_per_call(10, 50_000, || {
                black_box(ms.has_conflicts(CoreId(0), black_box(Addr(0)), AccessKind::Read));
                black_box(ms.conflict_set(CoreId(0), Addr(0), AccessKind::Read).len());
            }),
        );

        let mut ms: MemorySystem = MemorySystem::new(MemConfig::default(), 32);
        ms.access(CoreId(0), Addr(0), AccessKind::Write, false);
        ms.access(CoreId(0), Addr(8), AccessKind::Write, false);
        self.put(
            "mem.spec_mark_clear_ns",
            min_ns_per_call(10, 50_000, || {
                let plan = ms.plan(CoreId(0), Addr(0), AccessKind::Read);
                black_box(ms.access_planned(&plan, true));
                let plan = ms.plan(CoreId(0), Addr(8), AccessKind::Write);
                black_box(ms.access_planned(&plan, true));
                black_box(ms.clear_spec(CoreId(0)));
            }),
        );

        let mut ms: MemorySystem = MemorySystem::new(MemConfig::default(), 1);
        let mut v = 0u64;
        self.put(
            "mem.word_rw_ns",
            min_ns_per_call(10, 100_000, || {
                v = v.wrapping_add(ms.read_word(black_box(Addr(100)))) | 1;
                ms.write_word(Addr(100), v);
            }),
        );
    }

    // ----------------------------------------------------------------- core

    /// The shapes of `crates/core/benches/engine.rs`.
    fn core(&mut self) {
        fn tracked_engine() -> Engine {
            let mut eng = Engine::new(RetconConfig::default());
            eng.begin();
            assert!(eng.begin_tracking(Addr(0).block(), |_| 7));
            eng
        }
        let mut eng = tracked_engine();
        let v = eng.finish_tracked_load(Reg(1), Addr(0));
        self.put(
            "core.on_alu_symbolic_ns",
            min_ns_per_call(10, 100_000, || {
                black_box(eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, black_box(v), 1));
            }),
        );
        let eng = tracked_engine();
        self.put(
            "core.load_path_ns",
            min_ns_per_call(10, 100_000, || {
                black_box(eng.load_path(black_box(Addr(0))));
            }),
        );
        self.put(
            "core.validate_repair_ns",
            min_ns_per_call(10, 10_000, || {
                let mut eng = tracked_engine();
                let v = eng.finish_tracked_load(Reg(1), Addr(0));
                let v = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, v, 1);
                eng.on_store(Addr(0), Some(Reg(1)), v);
                black_box(eng.validate_and_repair(|_| 9).expect("repairs"));
            }),
        );
    }

    // ------------------------------------------------------------------ htm

    fn htm(&mut self) -> Result<(), String> {
        const SYSTEMS: [System; 4] = [System::Eager, System::LazyVb, System::Retcon, System::Datm];
        let (c0, c1) = (CoreId(0), CoreId(1));
        for system in SYSTEMS {
            let label = system.label();
            // Uncontended: begin, two reads, a write, commit, all on
            // blocks no other core touches.
            let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
            let mut tm = system.protocol(2);
            let mut now = 0u64;
            self.put(
                &format!("htm.tx_uncontended_ns.{label}"),
                min_ns_per_call(10, 10_000, || {
                    now += 10;
                    tm.tx_begin(c0, now);
                    black_box(tm.read(c0, Reg(1), Addr(0), None, &mut mem, now + 1));
                    black_box(tm.read(c0, Reg(2), Addr(8), None, &mut mem, now + 2));
                    black_box(tm.write(c0, None, now, Addr(16), None, &mut mem, now + 3));
                    black_box(tm.commit(c0, &mut mem, now + 4));
                }),
            );
            if tm.tx_active(c0) {
                return Err(format!(
                    "{label}: uncontended probe left a transaction open"
                ));
            }

            // Contended: both cores write one block inside transactions;
            // the older commits, the younger is driven until the
            // protocol has resolved it (stall, abort, repair or commit).
            let mut mem: MemorySystem = MemorySystem::new(MemConfig::default(), 2);
            let mut tm = system.protocol(2);
            let mut now = 0u64;
            self.put(
                &format!("htm.conflict_resolve_ns.{label}"),
                min_ns_per_call(10, 5_000, || {
                    now += 20;
                    tm.tx_begin(c0, now);
                    black_box(tm.write(c0, None, now, Addr(0), None, &mut mem, now + 1));
                    tm.tx_begin(c1, now + 2);
                    black_box(tm.write(c1, None, now, Addr(0), None, &mut mem, now + 3));
                    black_box(tm.commit(c0, &mut mem, now + 4));
                    for retry in 0..4 {
                        if tm.take_aborted(c1) || !tm.tx_active(c1) {
                            break;
                        }
                        black_box(tm.commit(c1, &mut mem, now + 5 + retry));
                    }
                    tm.take_aborted(c0);
                }),
            );
            if tm.tx_active(c0) || tm.tx_active(c1) {
                return Err(format!("{label}: conflict probe left a transaction open"));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ sim + obs

    fn sim_and_obs(&mut self) -> Result<(), String> {
        let err = |e: retcon_sim::SimError| e.to_string();
        let opt = Workload::Python { optimized: true }.build(32, PROBE_SEED);
        let python = Workload::Python { optimized: false }.build(32, PROBE_SEED);
        let wide = Workload::ScalingXl.build(1024, PROBE_SEED);

        self.put(
            "sim.machine_new_us",
            min_s(5, || {
                black_box(machine_for(
                    &opt,
                    System::Retcon.protocol(32),
                    SimConfig::with_cores(32),
                ));
            })
            .0 * 1e6,
        );

        // Host nanoseconds per simulated instruction, three shapes.
        let (s, report) = min_s(2, || run_spec_sized(&opt, System::Retcon, 32, 1));
        let report = report.map_err(err)?;
        self.put(
            "sim.run_ns_per_instr.uncontended",
            s * 1e9 / report.total_instructions() as f64,
        );
        let (contended_s, report) = min_s(2, || run_spec_sized(&python, System::Retcon, 32, 1));
        let contended = report.map_err(err)?;
        self.put(
            "sim.run_ns_per_instr.contended",
            contended_s * 1e9 / contended.total_instructions() as f64,
        );
        let (serial_s, report) = min_s(2, || run_spec_sized(&wide, System::Retcon, 1024, 1));
        let serial = report.map_err(err)?;
        self.put(
            "sim.run_ns_per_instr.wide",
            serial_s * 1e9 / serial.total_instructions() as f64,
        );

        // Stall-storm fast-forward off ÷ on; reports must be equal.
        let (ff_off_s, report) = min_s(1, || {
            let mut m = machine_for(
                &python,
                System::Retcon.protocol(32),
                SimConfig::with_cores(32),
            );
            m.set_fast_forward(false);
            m.run()
        });
        if report.map_err(err)? != contended {
            return Err("fast-forward changed the report".to_string());
        }
        self.put("sim.ff_speedup", ff_off_s / contended_s);

        // One shard ÷ two shards at 1024 cores; reports must be equal.
        let shards = host::load_threads();
        let (sharded_s, report) = min_s(2, || run_spec_sized(&wide, System::Retcon, 1024, shards));
        if report.map_err(err)? != serial {
            return Err("sharding changed the report".to_string());
        }
        self.put("sim.shard2_speedup", serial_s / sharded_s);

        // Report serialization, on the contended 32-core report.
        let text = contended.to_json().to_string();
        let mb = text.len() as f64 / 1e6;
        self.put(
            "sim.report_to_json_us",
            min_ns_per_call(5, 200, || {
                black_box(contended.to_json().to_string());
            }) / 1e3,
        );
        let parsed = Json::parse(&text).map_err(|e| e.to_string())?;
        self.put(
            "sim.report_from_json_us",
            min_ns_per_call(5, 200, || {
                black_box(SimReport::from_json(&parsed).expect("round trip"));
            }) / 1e3,
        );
        self.put(
            "sim.json_parse_mb_per_s",
            mb / (min_ns_per_call(5, 200, || {
                black_box(Json::parse(black_box(&text)).expect("parses"));
            }) / 1e9),
        );
        self.put(
            "sim.content_hash_mb_per_s",
            mb / (min_ns_per_call(5, 2_000, || {
                black_box(content_hash128(black_box(text.as_bytes())));
            }) / 1e9),
        );

        // Event tracing: overhead, and exact event counts.
        let (traced_s, traced) = min_s(2, || {
            run_spec_traced_sized(
                &python,
                System::Retcon,
                32,
                1,
                retcon_obs::ring::DEFAULT_CAPACITY,
            )
        });
        let (report, tracer) = traced.map_err(err)?;
        if report != contended {
            return Err("event tracing changed the report".to_string());
        }
        self.put("obs.trace_overhead_ratio", traced_s / contended_s);
        for (name, kind) in [
            ("stall", EventKind::Stall),
            ("conflict", EventKind::Conflict),
            ("abort", EventKind::Abort),
            ("repair", EventKind::Repair),
            ("storm_ff", EventKind::StormFf),
        ] {
            self.put(&format!("sim.events.{name}"), tracer.count(kind) as f64);
        }

        let hist = Log2Hist::new();
        let mut v = 1u64;
        self.put(
            "obs.hist_observe_ns",
            min_ns_per_call(10, 100_000, || {
                v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                hist.observe(black_box(v >> 40));
            }),
        );
        Ok(())
    }

    // ------------------------------------------------------------ workloads

    fn workloads(&mut self) -> Result<(), String> {
        self.put(
            "workloads.build_spec_ms.python32",
            min_s(3, || {
                black_box(Workload::Python { optimized: false }.build(32, PROBE_SEED));
            })
            .0 * 1e3,
        );
        self.put(
            "workloads.build_spec_ms.scaling_xl1024",
            min_s(3, || {
                black_box(Workload::ScalingXl.build(1024, PROBE_SEED));
            })
            .0 * 1e3,
        );
        let (s, cycles) = min_s(2, || {
            sequential_baseline(Workload::Python { optimized: false }, PROBE_SEED)
        });
        cycles.map_err(|e| e.to_string())?;
        self.put("workloads.seq_baseline_ms", s * 1e3);
        Ok(())
    }

    // ------------------------------------------------------------------ lab

    fn lab(&mut self) -> Result<(), String> {
        // Record serialization on the `scaling` record (36 runs; fig9
        // would cost 2 s to collect for the same per-byte answer).
        let jobs = Dataset::Scaling.jobs();
        let cache = ReportCache::new();
        let (jobs1_s, runs) = min_s(1, || run_jobs_cached(&jobs, 1, &ReportCache::new()));
        runs.map_err(|e| e.to_string())?;
        let (jobs2_s, _) = min_s(1, || {
            run_jobs_cached(&jobs, host::load_threads(), &ReportCache::new())
        });
        self.put("lab.jobs2_speedup", jobs1_s / jobs2_s);
        let record = Dataset::Scaling
            .collect_cached(1, &cache)
            .map_err(|e| e.to_string())?;
        let json = record.to_json_string();
        let csv_text = csv::to_csv(&record)?;
        let per_s = |bytes: usize, ns: f64| bytes as f64 / 1e6 / (ns / 1e9);
        self.put(
            "lab.record_json_mb_per_s",
            per_s(
                json.len(),
                min_ns_per_call(5, 20, || {
                    black_box(record.to_json_string());
                }),
            ),
        );
        self.put(
            "lab.record_csv_mb_per_s",
            per_s(
                csv_text.len(),
                min_ns_per_call(5, 200, || {
                    black_box(csv::to_csv(&record).expect("csv"));
                }),
            ),
        );
        self.put(
            "lab.record_parse_mb_per_s",
            per_s(
                json.len(),
                min_ns_per_call(5, 20, || {
                    black_box(ExperimentRecord::from_json_str(black_box(&json)).expect("parses"));
                }),
            ),
        );

        let key = RunKey::new(Workload::Counter, System::Retcon, 8, PROBE_SEED);
        self.put(
            "lab.runkey_hash_ns",
            min_ns_per_call(10, 20_000, || {
                black_box(black_box(&key).content_hash());
            }),
        );

        // The result store's three read paths and two write paths, on a
        // small report (what the serve workloads store).
        let report = engine::simulate(&key).map_err(|e| e.to_string())?;
        let dir = host::out_dir()
            .join("tmp")
            .join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;

        let mem_store = ResultStore::new(64 << 20);
        let mut h = 0u128;
        self.put(
            "lab.store_insert_mem_us",
            min_ns_per_call(5, 200, || {
                h += 1;
                mem_store.insert_hash(h, &report, 1_000);
            }) / 1e3,
        );
        self.put(
            "lab.store_lookup_mem_us",
            min_ns_per_call(5, 1_000, || {
                black_box(mem_store.lookup_hash(black_box(7)));
            }) / 1e3,
        );

        // 1 000 spilled entries: insert cost with write-through, then
        // what a restart pays to verify and index them.
        let spill_store = ResultStore::new(64 << 20).with_spill(dir.clone());
        let t = Instant::now();
        for h in 1..=1_000u128 {
            spill_store.insert_hash(h, &report, 1_000);
        }
        self.put(
            "lab.store_insert_spill_us",
            t.elapsed().as_secs_f64() * 1e6 / 1_000.0,
        );
        let t = Instant::now();
        let restarted = ResultStore::new(64 << 20).with_spill(dir.clone());
        let (recovered, quarantined) = restarted.warm_start();
        self.put(
            "lab.warm_start_ms_per_kfile",
            t.elapsed().as_secs_f64() * 1e3,
        );
        if (recovered, quarantined) != (1_000, 0) {
            return Err(format!(
                "warm start recovered {recovered}, quarantined {quarantined} of 1000"
            ));
        }
        // A store too small for two reports: alternating lookups evict
        // each other, so every lookup reads, verifies and re-admits.
        let tiny = ResultStore::new(1).with_spill(dir.clone());
        tiny.warm_start();
        let mut which = 0u128;
        let spill_us = min_ns_per_call(5, 100, || {
            which = 1 + (which % 2);
            black_box(tiny.lookup_hash(which).expect("spilled entry"));
        }) / 1e3;
        self.put("lab.store_lookup_spill_us", spill_us);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        Ok(())
    }

    // ---------------------------------------------------------------- serve

    fn serve(&mut self) -> Result<(), String> {
        let daemon = Daemon::start()?;
        let warm = WarmMix::setup(&daemon, PROBE_SEED)?;
        let keys = warm.keys();
        let key = &keys[0];
        let mut client = daemon.connect()?;

        // Wire-format functions, on one key's request and reply.
        let request_line = Request::Sweep(single_key_request(1, key)).to_line();
        self.put(
            "serve.request_parse_us",
            min_ns_per_call(5, 2_000, || {
                black_box(Request::parse_line(black_box(&request_line)).expect("parses"));
            }) / 1e3,
        );
        let report = engine::simulate(key).map_err(|e| e.to_string())?;
        let record_us = min_ns_per_call(5, 500, || {
            let run_json = engine::record_for(key, report.clone())
                .to_json()
                .to_string();
            black_box(record_line(1, 0, true, &run_json));
        }) / 1e3;
        self.put("serve.record_line_us", record_us);
        let line = record_line(
            1,
            0,
            true,
            &engine::record_for(key, report.clone())
                .to_json()
                .to_string(),
        );
        self.put(
            "serve.response_parse_us",
            min_ns_per_call(5, 500, || {
                black_box(Response::parse_line(black_box(&line)).expect("parses"));
            }) / 1e3,
        );

        // One connection, sequential one-key hits. The daemon keeps no
        // per-hit histogram, so its share is what the public functions a
        // hit runs cost in-process (hash + store lookup + record line);
        // the rest of the round trip is wire and scheduling, by
        // construction: rtt = server + wire.
        let mut rtts = Vec::new();
        for (i, key) in keys.iter().take(12).enumerate() {
            let req = single_key_request(100 + i as u64, key);
            let t = Instant::now();
            let res = client.sweep(&req)?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
            if res.hits != 1 {
                return Err(format!("hit probe: {key:?} was not a hit"));
            }
        }
        let hit_rtt = crate::stats::median(&rtts);
        let store = ResultStore::new(64 << 20);
        store.insert_hash(key.content_hash(), &report, 1_000);
        let lookup_us = min_ns_per_call(5, 1_000, || {
            black_box(store.lookup_hash(black_box(key).content_hash()));
        }) / 1e3;
        let hit_server = lookup_us + record_us;
        self.put("serve.hit_rtt_us", hit_rtt);
        self.put("serve.hit_server_us", hit_server);
        self.put("serve.hit_wire_us", hit_rtt - hit_server);

        // One-key misses: client round trip, the same keys simulated
        // offline, the difference, and the daemon's own spill-write
        // histogram.
        let before = daemon.connect()?.metrics()?;
        let mut miss_rtts = Vec::new();
        let mut sims = Vec::new();
        for i in 0..8u64 {
            let key = RunKey::new(Workload::Kmeans, System::Retcon, 8, 0x6d69_7373 + i);
            let t = Instant::now();
            let res = client.sweep(&single_key_request(200 + i, &key))?;
            miss_rtts.push(t.elapsed().as_secs_f64() * 1e6);
            if res.misses != 1 {
                return Err(format!("miss probe: {key:?} was not a miss"));
            }
            let t = Instant::now();
            let offline = engine::simulate(&key).map_err(|e| e.to_string())?;
            sims.push(t.elapsed().as_secs_f64() * 1e6);
            if res.records[0].report != offline {
                return Err(format!("miss probe: {key:?} differs from offline"));
            }
        }
        let after = daemon.connect()?.metrics()?;
        let miss_rtt = crate::stats::median(&miss_rtts);
        let miss_sim = crate::stats::median(&sims);
        self.put("serve.miss_rtt_us", miss_rtt);
        self.put("serve.miss_sim_us", miss_sim);
        self.put("serve.miss_overhead_us", miss_rtt - miss_sim);
        let delta = |name: &str| {
            exposition_value(&after, name).unwrap_or(0.0)
                - exposition_value(&before, name).unwrap_or(0.0)
        };
        let writes = delta("retcon_serve_spill_write_latency_micros_count");
        self.put(
            "serve.spill_write_us_mean",
            if writes > 0.0 {
                delta("retcon_serve_spill_write_latency_micros_sum") / writes
            } else {
                0.0
            },
        );

        // Per-record cost without per-request cost: one 64-key sweep,
        // every key a hit.
        let mut population = WarmMix::population(PROBE_SEED);
        population.id = 300;
        let (s, res) = min_s(3, || client.sweep(&population));
        let res = res?;
        if res.hits != 64 {
            return Err("sweep64 probe: not all hits".to_string());
        }
        self.put("serve.sweep64_records_per_s", 64.0 / s);

        // Single flight: two connections ask for one new key at once;
        // exactly one execution may result.
        let executed =
            |c: &mut retcon_serve::Client| Ok::<u64, String>(stat(&c.stats()?, "executed"));
        let before = executed(&mut client)?;
        let key = RunKey::new(
            Workload::Genome { resizable: false },
            System::Eager,
            8,
            0x6a6f_696e,
        );
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|i| {
                    let (daemon, key, barrier) = (&daemon, &key, &barrier);
                    scope.spawn(move || {
                        let mut c = daemon.connect()?;
                        barrier.wait();
                        c.sweep(&single_key_request(400 + i, key)).map(|_| ())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("join probe connection panicked"))
        })?;
        self.put(
            "serve.join_executed",
            (executed(&mut client)? - before) as f64,
        );
        drop(client);
        daemon.stop()
    }

    // -------------------------------------------------------------- explore

    fn explore(&mut self) {
        let (s, results) = min_s(1, || run_campaigns(&suite(true), 1));
        black_box(results);
        self.put("explore.quick_suite_s", s);
    }
}

/// The value of an unlabelled sample in a Prometheus text exposition.
fn exposition_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_values_are_found_by_exact_name() {
        let text = "# TYPE x_sum counter\nx_sum 12\nx_sum_total 99\nx_count 3\n";
        assert_eq!(exposition_value(text, "x_sum"), Some(12.0));
        assert_eq!(exposition_value(text, "x_count"), Some(3.0));
        assert_eq!(exposition_value(text, "x"), None);
    }

    #[test]
    fn min_ns_per_call_grows_with_the_work_per_call() {
        let spin = |n: u64| {
            min_ns_per_call(3, 200, || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
                black_box(x);
            })
        };
        assert!(spin(2_000) > spin(20) * 5.0);
    }
}
