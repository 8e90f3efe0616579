//! Concurrent snapshot forking: many host threads fork the same
//! [`CpuSnapshot`] and run divergent workloads. Copy-on-write pages mean
//! no fork may ever observe another fork's stores, and each fork's final
//! state must be bit-for-bit the state of a serial re-run of the same
//! workload — the isolation guarantee the cluster/serving harness builds
//! on.

use smallfloat_asm::Assembler;
use smallfloat_devtools::{prop, Rng};
use smallfloat_isa::{BranchCond, Instr, XReg};
use smallfloat_sim::{Cpu, CpuSnapshot, ExitReason, SimConfig};

const TEXT: u32 = 0x1000;
const IN: u32 = 0x8000;
const OUT: u32 = 0x9000;
const N: usize = 48;

/// `out[i] = in[i] * 3 + i`, word-sized, over `N` elements.
fn program() -> Vec<Instr> {
    let (i, p_in, p_out, v, n, three) = (
        XReg::s(0),
        XReg::s(1),
        XReg::s(2),
        XReg::t(0),
        XReg::t(1),
        XReg::t(2),
    );
    let mut asm = Assembler::new();
    asm.li(i, 0);
    asm.li(p_in, IN as i32);
    asm.li(p_out, OUT as i32);
    asm.li(n, N as i32);
    asm.li(three, 3);
    asm.label("loop");
    asm.lw(v, p_in, 0);
    asm.mul(v, v, three);
    asm.add(v, v, i);
    asm.sw(v, p_out, 0);
    asm.addi(p_in, p_in, 4);
    asm.addi(p_out, p_out, 4);
    asm.addi(i, i, 1);
    asm.branch(BranchCond::Lt, i, n, "loop");
    asm.ecall();
    asm.assemble().expect("fixed program assembles")
}

fn fork_and_run(image: &CpuSnapshot, input: &[u32]) -> CpuSnapshot {
    let mut cpu = Cpu::new(SimConfig::default());
    cpu.restore(image);
    let bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
    cpu.write_data(IN, &bytes);
    let exit = cpu.run(1_000_000).expect("fork must not trap");
    assert_eq!(exit, ExitReason::Ecall);
    cpu.snapshot()
}

fn read_out(snap: &CpuSnapshot) -> Vec<u32> {
    (0..N)
        .map(|i| {
            let b = &snap.mem().read_bytes(OUT + (i as u32) * 4, 4);
            u32::from_le_bytes(b[..].try_into().unwrap())
        })
        .collect()
}

/// M concurrent forks with per-thread random inputs: every fork's outputs
/// follow its own inputs' closed form (no cross-fork store leaks through
/// the shared pages), and its complete final state equals a serial re-run.
#[test]
fn concurrent_forks_are_isolated_and_replayable() {
    let mut warm = Cpu::new(SimConfig::default());
    warm.load_program(TEXT, &program());
    let image = warm.snapshot();
    prop::cases("concurrent_forks", 12, |rng: &mut Rng| {
        let threads = 2 + (rng.below(7) as usize); // 2..=8
        let inputs: Vec<Vec<u32>> = (0..threads)
            .map(|_| (0..N).map(|_| rng.u32() >> 14).collect())
            .collect();
        let finals: Vec<CpuSnapshot> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .iter()
                .map(|input| scope.spawn(|| fork_and_run(&image, input)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fork thread must not panic"))
                .collect()
        });
        for (t, (input, snap)) in inputs.iter().zip(&finals).enumerate() {
            // Isolation: this fork's outputs come from this fork's inputs.
            let want: Vec<u32> = input
                .iter()
                .enumerate()
                .map(|(i, v)| v.wrapping_mul(3).wrapping_add(i as u32))
                .collect();
            assert_eq!(read_out(snap), want, "fork {t} observed foreign stores");
            // Replayability: the concurrent fork is bit-for-bit a serial
            // re-run (registers, fcsr, stats, all of memory).
            let serial = fork_and_run(&image, input);
            assert!(
                snap.state_eq(&serial),
                "fork {t} diverged from its serial replay in {}",
                snap.first_difference(&serial).unwrap_or("nothing?!")
            );
        }
        // The shared image itself is immutable throughout.
        let untouched = warm.snapshot();
        assert!(
            image.state_eq(&untouched),
            "forks mutated the shared image: {}",
            image.first_difference(&untouched).unwrap_or("nothing?!")
        );
    });
}
