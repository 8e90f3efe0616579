//! Cluster correctness gates: every request a cluster serves must be
//! bit-identical to the single-core reference run of the same descriptor
//! (outputs, exception flags, cycles, energy), the deterministic schedule
//! must not depend on the host worker count, and multi-stage piping must
//! behave like a hand-chained run.

use smallfloat_asm::Assembler;
use smallfloat_cluster::{reference_run, Cluster, Stage, WorkDescriptor};
use smallfloat_isa::{BranchCond, Instr, XReg};
use smallfloat_sim::{Cpu, CpuSnapshot, SimConfig, Stats};

const TEXT: u32 = 0x1000;
const IN: u32 = 0x8000;
const OUT: u32 = 0x9000;

/// `out[i] = in[i] * scale + i` over `n` words — enough iterations that
/// the loop body replays as a cached block, so cluster forks exercise the
/// warmed block engine, not just the per-instruction path.
fn scale_program(n: i32, scale: i32) -> Vec<Instr> {
    let (i, p_in, p_out, v, sc) = (XReg::s(0), XReg::s(1), XReg::s(2), XReg::t(0), XReg::t(1));
    let mut asm = Assembler::new();
    asm.li(i, 0);
    asm.li(p_in, IN as i32);
    asm.li(p_out, OUT as i32);
    asm.li(sc, scale);
    asm.label("loop");
    asm.lw(v, p_in, 0);
    asm.mul(v, v, sc);
    asm.add(v, v, i);
    asm.sw(v, p_out, 0);
    asm.addi(p_in, p_in, 4);
    asm.addi(p_out, p_out, 4);
    asm.addi(i, i, 1);
    asm.li(XReg::t(2), n);
    asm.branch(BranchCond::Lt, i, XReg::t(2), "loop");
    asm.ecall();
    asm.assemble().expect("fixed program assembles")
}

fn image(program: &[Instr]) -> CpuSnapshot {
    let mut cpu = Cpu::new(SimConfig::default());
    cpu.load_program(TEXT, program);
    cpu.snapshot()
}

fn words(vals: &[u32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn request(id: u64, n: usize, vals: &[u32]) -> WorkDescriptor {
    WorkDescriptor {
        id,
        stages: vec![Stage {
            image: 0,
            writes: vec![(IN, words(vals))],
            pipes: vec![],
            reads: vec![(OUT, n * 4)],
            max_instructions: 1_000_000,
        }],
    }
}

/// Every cluster result must match the single-core reference bit for bit,
/// whichever host worker executed it, and per-core work must never leak
/// into another request (each request sees only its own input words).
#[test]
fn requests_match_single_core_reference() {
    let n = 64;
    let images = vec![image(&scale_program(n as i32, 3))];
    let config = SimConfig::default();
    let mut cluster = Cluster::new(4, images.clone(), config.clone(), 42);
    let requests: Vec<WorkDescriptor> = (0..24)
        .map(|r| {
            let vals: Vec<u32> = (0..n as u32).map(|i| i * 7 + r as u32 * 1000).collect();
            request(r, n, &vals)
        })
        .collect();
    for d in &requests {
        cluster.submit(d.clone());
    }
    let results = cluster.run(3);
    assert_eq!(results.len(), requests.len());
    for (d, got) in requests.iter().zip(&results) {
        let want = reference_run(&images, &config, d);
        assert_eq!(got.id, d.id);
        assert_eq!(got.data, want.data, "request {} output diverged", d.id);
        assert_eq!(got.fflags, want.fflags, "request {} fflags diverged", d.id);
        assert_eq!(got.stats, want.stats, "request {} stats diverged", d.id);
        // Spot-check the payload against the closed form.
        let out: Vec<u32> = got.data[0]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let expect: Vec<u32> = (0..n as u32)
            .map(|i| (i * 7 + d.id as u32 * 1000) * 3 + i)
            .collect();
        assert_eq!(out, expect, "request {} payload wrong", d.id);
    }
}

/// The schedule (core assignment, start/end cycles, per-core rollups,
/// makespan) is a function of the submitted work only — not of how many
/// host threads executed it.
#[test]
fn schedule_independent_of_host_workers() {
    let n = 32;
    let images = vec![image(&scale_program(n as i32, 5))];
    let config = SimConfig::default();
    let mut runs = Vec::new();
    for host_workers in [1, 4] {
        let mut cluster = Cluster::new(3, images.clone(), config.clone(), 7);
        for r in 0..17 {
            let vals: Vec<u32> = (0..n as u32).map(|i| i + r as u32).collect();
            cluster.submit(request(r, n, &vals));
        }
        let results = cluster.run(host_workers);
        let report = cluster.report().expect("ran").clone();
        runs.push((results, report));
    }
    let (serial, serial_report) = &runs[0];
    let (threaded, threaded_report) = &runs[1];
    for (a, b) in serial.iter().zip(threaded) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.core, b.core, "request {} core assignment diverged", a.id);
        assert_eq!(a.start_cycle, b.start_cycle);
        assert_eq!(a.end_cycle, b.end_cycle);
        assert_eq!(a.data, b.data);
        assert_eq!(a.stats, b.stats);
    }
    assert_eq!(
        serial_report.makespan_cycles,
        threaded_report.makespan_cycles
    );
    for (a, b) in serial_report.per_core.iter().zip(&threaded_report.per_core) {
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.busy_until, b.busy_until);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.seed, b.seed);
    }
    // The rollup accounts every request exactly once.
    let total: u64 = serial_report.per_core.iter().map(|c| c.requests).sum();
    assert_eq!(total, 17);
    let mut want_total = Stats::new();
    for r in serial {
        want_total.merge(&r.stats);
    }
    assert_eq!(serial_report.total, want_total);
    // 17 equal-cost requests over 3 cores: makespan is the max per-core
    // chain, i.e. ceil(17/3) = 6 requests deep.
    let per = serial[0].stats.cycles;
    assert_eq!(serial_report.makespan_cycles, 6 * per);
}

/// A two-stage descriptor pipes stage 1's output bytes into stage 2's
/// input region; the result must equal running the closed form by hand.
#[test]
fn multi_stage_piping_chains_stages() {
    let n = 16;
    let images = vec![
        image(&scale_program(n as i32, 3)),
        image(&scale_program(n as i32, 5)),
    ];
    let config = SimConfig::default();
    let vals: Vec<u32> = (0..n as u32).map(|i| i + 1).collect();
    let desc = WorkDescriptor {
        id: 9,
        stages: vec![
            Stage {
                image: 0,
                writes: vec![(IN, words(&vals))],
                pipes: vec![],
                reads: vec![(OUT, n * 4)],
                max_instructions: 1_000_000,
            },
            Stage {
                image: 1,
                writes: vec![],
                pipes: vec![(IN, 0)],
                reads: vec![(OUT, n * 4)],
                max_instructions: 1_000_000,
            },
        ],
    };
    let mut cluster = Cluster::new(2, images.clone(), config.clone(), 1);
    cluster.submit(desc.clone());
    let got = &cluster.run(1)[0];
    let want = reference_run(&images, &config, &desc);
    assert_eq!(got.data, want.data);
    assert_eq!(got.stats, want.stats);
    let out: Vec<u32> = got.data[0]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let expect: Vec<u32> = (0..n as u32).map(|i| ((i + 1) * 3 + i) * 5 + i).collect();
    assert_eq!(out, expect);
    // Two stages really ran: the summed cycle count is about twice one
    // stage's.
    assert!(got.stats.cycles > want.stats.cycles / 2);
}
