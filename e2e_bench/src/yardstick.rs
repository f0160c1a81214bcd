//! The yardstick: a fixed piece of work, owned by the benchmark, timed
//! between passes to tell how fast the host runs at that moment.
//!
//! On a shared host the same code runs at different speeds from second to
//! second: on the 2-core development VM, a warm 2D loop ran between about
//! 45 and 95 calls per second in half-second windows, and the share of fast
//! and slow stretches differed from run to run and over minutes. Thread CPU
//! time matched wall time, so the cause is the host's cores being shared,
//! not steal time.
//!
//! The yardstick is a small packet-routing simulation of its own: queues
//! on a mesh, branches, and a few megabytes of state, the kind of work the
//! fabric engine does. The host-time metrics are reported in *nominal*
//! time: each stretch of host time times the host speed the yardstick
//! measured around it, relative to [`NOMINAL_RUNS_PER_S`]. A change to the
//! code under test leaves the yardstick alone, so it shows in full.
//!
//! The mesh is allocated once, before any workload memory, and stays
//! resident, so it adds a constant to the process's memory; [`init`] says
//! how much.

use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::util::rss_mb;

/// Yardstick runs per second at nominal host speed: the median on the
/// 2-core x86-64 VM the baseline was measured on.
const NOMINAL_RUNS_PER_S: f64 = 130.0;

/// Side of the mesh: 65536 cells, about 6 MB of state.
const SIDE: usize = 256;
/// Packets each cell queue holds.
const QUEUE: usize = 8;
/// Packets each queue starts a run with.
const START_FILL: usize = QUEUE / 2;
/// Simulated steps per run: several milliseconds at nominal speed.
const STEPS: usize = 3;

/// The mesh's state: a ring buffer of packets per cell and an accumulator
/// the packets delivered at that cell are summed into.
struct Mesh {
    packets: Vec<[u32; QUEUE]>,
    heads: Vec<u8>,
    lens: Vec<u8>,
    accumulators: Vec<[f32; 16]>,
    /// Resident MiB the mesh added when it was allocated.
    resident_mb: f64,
}

static MESH: OnceLock<Mutex<Mesh>> = OnceLock::new();

fn mesh() -> &'static Mutex<Mesh> {
    MESH.get_or_init(|| {
        let before = rss_mb();
        let cells = SIDE * SIDE;
        let mut mesh = Mesh {
            packets: vec![[0; QUEUE]; cells],
            heads: vec![0; cells],
            lens: vec![0; cells],
            accumulators: vec![[0.0; 16]; cells],
            resident_mb: 0.0,
        };
        // Touch every page, so the mesh is resident from here on.
        mesh.packets.iter_mut().for_each(|p| p.fill(1));
        mesh.route(1);
        mesh.resident_mb = (rss_mb() - before).max(0.0);
        Mutex::new(mesh)
    })
}

/// Time one run of the yardstick: the host's speed now, relative to
/// nominal (2.0 is twice as fast).
pub fn host_speed() -> f64 {
    let mut mesh = mesh().lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let start = Instant::now();
    black_box(mesh.route(black_box(STEPS)));
    1.0 / (start.elapsed().as_secs_f64() * NOMINAL_RUNS_PER_S)
}

/// Allocate the mesh, if it is not yet, and return the resident MiB it
/// holds. Call it before any workload memory is allocated, so the mesh's
/// pages are its own rather than ones the workload freed.
pub fn init() -> f64 {
    mesh().lock().unwrap_or_else(|poisoned| poisoned.into_inner()).resident_mb
}

impl Mesh {
    /// Pass packets between neighbours for `steps` steps, from queues of
    /// [`START_FILL`] pseudo-random packets and empty accumulators. Each
    /// step injects packets at pseudo-random cells, then every cell
    /// forwards the head of its queue in a direction drawn from the packet. It delivers the packet into its accumulator
    /// instead at an edge, on every fifth packet, or when the next queue is
    /// full. Returns the packets delivered.
    fn route(&mut self, steps: usize) -> u64 {
        let cells = SIDE * SIDE;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_random = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        self.heads.fill(0);
        self.lens.fill(0);
        self.accumulators.fill([0.0; 16]);
        for cell in 0..cells {
            for _ in 0..START_FILL {
                self.push(cell, (next_random() >> 32) as u32);
            }
        }
        let mut delivered = 0u64;
        for step in 0..steps {
            for _ in 0..256 {
                let random = next_random();
                self.push(random as usize % cells, (random >> 32) as u32);
            }
            for cell in 0..cells {
                let Some(packet) = self.pop(cell) else { continue };
                let (row, col) = (cell / SIDE, cell % SIDE);
                let next = match (packet ^ step as u32) & 3 {
                    0 if col + 1 < SIDE => Some(cell + 1),
                    1 if row + 1 < SIDE => Some(cell + SIDE),
                    2 if col > 0 => Some(cell - 1),
                    3 if row > 0 => Some(cell - SIDE),
                    _ => None,
                };
                let forwarded = next
                    .is_some_and(|next| packet % 5 != 0 && self.push(next, packet.rotate_left(3)));
                if !forwarded {
                    delivered += 1;
                    for (bit, sum) in self.accumulators[cell].iter_mut().enumerate() {
                        *sum += (packet >> bit & 1) as f32;
                    }
                }
            }
        }
        delivered
    }

    /// Queue `packet` at `cell`, unless its queue is full.
    fn push(&mut self, cell: usize, packet: u32) -> bool {
        let len = usize::from(self.lens[cell]);
        if len == QUEUE {
            return false;
        }
        let slot = (usize::from(self.heads[cell]) + len) % QUEUE;
        self.packets[cell][slot] = packet;
        self.lens[cell] += 1;
        true
    }

    fn pop(&mut self, cell: usize) -> Option<u32> {
        if self.lens[cell] == 0 {
            return None;
        }
        let head = usize::from(self.heads[cell]);
        self.heads[cell] = ((head + 1) % QUEUE) as u8;
        self.lens[cell] -= 1;
        Some(self.packets[cell][head])
    }
}
