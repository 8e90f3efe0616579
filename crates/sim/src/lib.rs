//! RISCY-like RV32IMFC + smallFloat core simulator with timing and energy
//! models.
//!
//! This crate is the evaluation substrate standing in for the paper's PULP
//! virtual platform + RISCY RTL: an instruction-accurate, in-order,
//! single-issue RV32IMFC core extended with the smallFloat ISA (Xf16,
//! Xf16alt, Xf8, Xfvec, Xfaux), plus:
//!
//! * a **timing model** with per-class cycle costs and a parameterizable
//!   load/store latency ([`MemLevel`]: L1 = 1 cycle, L2 = 10, L3 = 100 —
//!   exactly the paper's Figure 2/3 experiment knob), and
//! * an **energy model** ([`EnergyModel`]) with per-class per-operation
//!   energies scaled by datapath width, calibrated against the paper's
//!   UMC 65 nm post-layout anchors (see `DESIGN.md` §7),
//! * per-class instruction counters ([`Stats`]) for the paper's
//!   instruction-breakdown figures.
//!
//! ```
//! use smallfloat_isa::{AluOp, Instr, XReg};
//! use smallfloat_sim::{Cpu, ExitReason, SimConfig};
//!
//! let mut cpu = Cpu::new(SimConfig::default());
//! let prog = [
//!     Instr::OpImm { op: AluOp::Add, rd: XReg::a(0), rs1: XReg::ZERO, imm: 21 },
//!     Instr::Op { op: AluOp::Add, rd: XReg::a(0), rs1: XReg::a(0), rs2: XReg::a(0) },
//!     Instr::Ecall,
//! ];
//! cpu.load_program(0x1000, &prog);
//! let exit = cpu.run(1_000).unwrap();
//! assert_eq!(exit, ExitReason::Ecall);
//! assert_eq!(cpu.xreg(XReg::a(0)), 42);
//! ```

mod block;
mod cpu;
mod energy;
pub mod env;
mod exec;
mod mem;
pub mod par;
pub mod replay;
mod snapshot;
mod stats;
mod timing;

pub use cpu::{Cpu, ExitReason, SimConfig, SimError};
pub use energy::EnergyModel;
pub use mem::{MemSnapshot, Memory, PAGE_SIZE};
pub use snapshot::{CpuSnapshot, SnapshotError};
pub use stats::{hot_block_report, HotBlock, Stats};
pub use timing::{MemLevel, TimingModel};
