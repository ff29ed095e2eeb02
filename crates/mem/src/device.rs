//! The DRAM device model: channels, banks, open rows, a shared data bus per
//! channel, and an FR-FCFS-like command scheduler with request priorities.
//!
//! # Model
//!
//! Each channel serves one data burst at a time on its bus, but up to
//! [`PIPELINE_DEPTH`] commands may be "started" concurrently so that bank
//! preparation (precharge/activate) of the next command overlaps the current
//! burst — a lightweight approximation of bank-level parallelism that
//! preserves the two first-order effects the paper depends on: bus bandwidth
//! saturation under streaming (GPU) traffic and row-miss latency under
//! random (CPU) traffic.
//!
//! The device never touches the event queue. `enqueue` + `pump` return
//! started commands with their completion times; the caller schedules those
//! and calls [`MemDevice::on_complete`] when they fire, then pumps again.
//!
//! # Pending-command layout
//!
//! Queued commands live in a per-channel ring ([`CmdSlab`]) in arrival
//! order: a command's slot is its channel-local arrival number modulo a
//! power-of-two capacity, so circular slot order from the oldest queued
//! command is age order. The ring doubles only when the newest arrival
//! would wrap onto the oldest queued command; steady state never allocates
//! and never moves a pending command. The two fields the scheduler scans
//! (arrival time and row, precomputed with the bank once at enqueue) sit in
//! their own arrays; the rest of a command is one record, read when it is
//! queued, started or moved by growth. Beside the occupancy bitmap sit a
//! row-hit bitmap, maintained incrementally through per-bank slot bitmaps,
//! and one slot bitmap per priority value. The FR-FCFS pick is then a few
//! first-set-bit searches in circular order instead of a scan of every
//! queued key: arrival times never decrease along the ring, so the
//! commands escalated by [`AGE_CAP`] are its oldest prefix (see
//! `CmdSlab::pick`). The pick is exact: keys are unique, so slot order
//! never influences which command wins.

use crate::energy::EnergyBreakdown;
use crate::timing::DramTiming;
use h2_sim_core::trace_span::{
    coalesce, split_queue_wait, BlameCause, BlameClass, CmdTrace, SpanInterval, TraceTag,
};
use h2_sim_core::units::Cycles;

/// Waiting time after which a queued command is escalated past all
/// priorities (starvation guard for priority schedulers).
pub const AGE_CAP: Cycles = 250;

/// How many commands a channel may have in flight at once. This must cover
/// the CAS latency / burst-time ratio (~6 for both presets) so that a
/// streaming bank keeps the data bus saturated; bank prep of later commands
/// overlaps earlier bursts.
pub const PIPELINE_DEPTH: usize = 48;

/// A command presented to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCmd {
    /// Device byte address (bank/row are derived from it).
    pub addr: u64,
    /// Transfer size in bytes (rounded up to 64 B beats internally).
    pub bytes: u32,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Scheduling priority; higher wins (HAShCache prioritises CPU = 1).
    pub priority: u8,
    /// Opaque caller token, returned on completion.
    pub token: u64,
}

/// A command the scheduler has started, with its completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedCmd {
    /// Absolute cycle at which the data transfer finishes.
    pub done_at: Cycles,
    /// The caller's token.
    pub token: u64,
    /// Channel that served it (for the caller's bookkeeping).
    pub channel: usize,
}

/// Address → (bank, row) decomposition, strength-reduced to shifts and
/// masks when the geometry is a power of two (both Table I presets are).
#[derive(Debug, Clone, Copy)]
struct AddrMap {
    row_bytes: u64,
    banks: u64,
    /// `log2(row_bytes)`, valid when `pow2`.
    row_shift: u32,
    /// `banks - 1`, valid when `pow2`.
    bank_mask: u64,
    /// `log2(banks)`, valid when `pow2`.
    bank_shift: u32,
    pow2: bool,
}

impl AddrMap {
    fn new(row_bytes: u64, banks: u64) -> Self {
        let pow2 = row_bytes.is_power_of_two() && banks.is_power_of_two();
        Self {
            row_bytes,
            banks,
            row_shift: row_bytes.trailing_zeros(),
            bank_mask: banks.wrapping_sub(1),
            bank_shift: banks.trailing_zeros(),
            pow2,
        }
    }

    /// Map a device address to (bank index, row id). Value-identical to
    /// `row_global = addr / row_bytes; (row_global % banks, row_global /
    /// banks)` — the shift path is exact for power-of-two geometry.
    #[inline]
    fn map(&self, addr: u64) -> (u32, u64) {
        if self.pow2 {
            let row_global = addr >> self.row_shift;
            ((row_global & self.bank_mask) as u32, row_global >> self.bank_shift)
        } else {
            let row_global = addr / self.row_bytes;
            ((row_global % self.banks) as u32, row_global / self.banks)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycles,
    // Per-bank locality stats (telemetry).
    row_hits: u64,
    row_conflicts: u64,
    /// Class of the last command started on this bank (tracing only):
    /// blames bank-busy waits on whoever occupied the bank.
    last_class: BlameClass,
}

/// Tracing context attached to the demand command of a sampled
/// transaction: its span tag plus the channel's queue composition (by
/// [`BlameClass`]) snapshotted at enqueue.
#[derive(Debug, Clone, Copy)]
struct TracedInfo {
    tag: TraceTag,
    ahead: [u64; 3],
}

/// A queued command's fields other than the arrival time and row the
/// scheduler scans: read when it is queued, started or moved by growth.
#[derive(Debug, Clone, Copy, Default)]
struct Queued {
    /// Channel-local arrival number (`num % capacity` is the slot).
    num: u64,
    token: u64,
    bank: u32,
    bytes: u32,
    /// Index into [`CmdSlab::prios`] of the command's priority.
    pclass: u8,
    write: bool,
    class: BlameClass,
    trace: Option<TracedInfo>,
}

/// One channel's pending commands: a ring in arrival order.
///
/// A command's slot is its channel-local arrival number modulo the
/// capacity, a power of two and a multiple of 64. Pending commands hold the
/// arrival numbers `head..next`, so circular slot order from the head slot
/// is age order. A slot is queued iff its `occ` bit is set; `hit` mirrors
/// `occ` with the slot's current row-hit status, `bank_slots` holds one
/// slot bitmap per bank (so `hit` is refreshed incrementally whenever a
/// bank's open row changes), and `prio_slots` one per priority value seen
/// on this channel. Bitmap families are flat `rows × words` vectors.
#[derive(Debug)]
struct CmdSlab {
    // Per-slot arrays scanned by `pick` and `rehit_bank`.
    arrival_time: Vec<Cycles>,
    row: Vec<u64>,
    /// Everything else about each slot's command.
    cmds: Vec<Queued>,
    /// Slot occupancy, one bit per slot.
    occ: Vec<u64>,
    /// Row-hit status per slot (`hit ⊆ occ`).
    hit: Vec<u64>,
    /// Per-bank slot bitmaps, `banks × words` (their union is `occ`).
    bank_slots: Vec<u64>,
    /// Per-priority slot bitmaps, `prios.len() × words` (union is `occ`).
    prio_slots: Vec<u64>,
    /// Priority value of each `prio_slots` row, in order of first use.
    prios: Vec<u8>,
    /// Queued commands per `prios` row.
    prio_len: Vec<usize>,
    banks: usize,
    /// Arrival number of the oldest queued command (`next` when empty).
    head: u64,
    /// Arrival number the next enqueue receives.
    next: u64,
    /// Arrival time of the latest enqueue (never decreases).
    last_arrival: Cycles,
    /// Queued commands (population count of `occ`).
    len: usize,
}

impl CmdSlab {
    fn new(banks: usize) -> Self {
        let cap = 64;
        Self {
            arrival_time: vec![0; cap],
            row: vec![0; cap],
            cmds: vec![Queued::default(); cap],
            occ: vec![0; 1],
            hit: vec![0; 1],
            bank_slots: vec![0; banks],
            prio_slots: Vec::new(),
            prios: Vec::new(),
            prio_len: Vec::new(),
            banks,
            head: 0,
            next: 0,
            last_arrival: 0,
            len: 0,
        }
    }

    #[inline]
    fn words(&self) -> usize {
        self.occ.len()
    }

    #[inline]
    fn mask(&self) -> usize {
        self.occ.len() * 64 - 1
    }

    /// Arrival number and slot of the next arrival, doubling the ring
    /// first if that arrival would wrap onto the oldest queued command.
    #[inline]
    fn alloc_slot(&mut self) -> (u64, usize) {
        if self.next - self.head > self.mask() as u64 {
            self.grow();
        }
        let num = self.next;
        self.next += 1;
        (num, num as usize & self.mask())
    }

    /// Double the capacity, moving each queued command to its arrival
    /// number modulo the new capacity (its old slot or that plus the old
    /// capacity) and rebuilding the bitmaps. A fixed handful of
    /// allocations per doubling; steady state never grows.
    #[cold]
    fn grow(&mut self) {
        let words = self.words() * 2;
        let cap = words * 64;
        self.arrival_time.resize(cap, 0);
        self.row.resize(cap, 0);
        self.cmds.resize(cap, Queued::default());
        let occ = std::mem::replace(&mut self.occ, vec![0; words]);
        let hit = std::mem::replace(&mut self.hit, vec![0; words]);
        self.bank_slots = vec![0; self.banks * words];
        self.prio_slots = vec![0; self.prios.len() * words];
        for (w, &word) in occ.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let from = w * 64 + b;
                let to = self.cmds[from].num as usize & (cap - 1);
                if to != from {
                    self.arrival_time[to] = self.arrival_time[from];
                    self.row[to] = self.row[from];
                    self.cmds[to] = self.cmds[from];
                }
                self.mark(to, hit[w] >> b & 1 == 1);
            }
        }
    }

    /// Row of `prio_slots` for priority `prio`, appending one on first use.
    #[inline]
    fn prio_class(&mut self, prio: u8) -> u8 {
        match self.prios.iter().position(|&p| p == prio) {
            Some(c) => c as u8,
            None => {
                self.prios.push(prio);
                self.prio_len.push(0);
                self.prio_slots.resize(self.prio_slots.len() + self.words(), 0);
                (self.prios.len() - 1) as u8
            }
        }
    }

    /// Set `slot`'s bits in every bitmap (the slot's fields are filled).
    #[inline]
    fn mark(&mut self, slot: usize, hit: bool) {
        let words = self.words();
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        self.occ[w] |= bit;
        self.hit[w] |= (hit as u64) << (slot % 64);
        let q = &self.cmds[slot];
        self.bank_slots[q.bank as usize * words + w] |= bit;
        self.prio_slots[q.pclass as usize * words + w] |= bit;
    }

    #[inline]
    fn set_occupied(&mut self, slot: usize, hit: bool) {
        self.mark(slot, hit);
        self.prio_len[self.cmds[slot].pclass as usize] += 1;
        self.len += 1;
    }

    #[inline]
    fn clear_slot(&mut self, slot: usize) {
        let words = self.words();
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        self.occ[w] &= !bit;
        self.hit[w] &= !bit;
        let q = self.cmds[slot];
        self.bank_slots[q.bank as usize * words + w] &= !bit;
        self.prio_slots[q.pclass as usize * words + w] &= !bit;
        self.prio_len[q.pclass as usize] -= 1;
        self.len -= 1;
        if q.num == self.head {
            self.head = match self.first_from_head(|w| self.occ[w]) {
                Some(s) => self.cmds[s].num,
                None => self.next,
            };
        }
    }

    /// Refresh the row-hit bits of every slot queued on `bank` after its
    /// open row changed to `row`.
    #[inline]
    fn rehit_bank(&mut self, bank: usize, row: u64) {
        let words = self.words();
        for w in 0..words {
            let mut bits = self.bank_slots[bank * words + w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let hit = (self.row[w * 64 + b] == row) as u64;
                self.hit[w] = (self.hit[w] & !(1 << b)) | (hit << b);
            }
        }
    }

    /// The oldest queued slot whose bit is set in `bitmap(word)`: a
    /// first-set-bit search in circular order from the head slot, over the
    /// words that hold arrivals `head..next` only.
    #[inline]
    fn first_from_head(&self, bitmap: impl Fn(usize) -> u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let h = self.head as usize & self.mask();
        let (hw, hb) = (h / 64, h % 64);
        // Words from the head's word to the newest arrival's. When the span
        // wraps fully, the last is the head's word again, whose bits at or
        // above `hb` were already searched.
        let span_words = ((self.next - 1 - self.head) as usize + hb) / 64 + 1;
        let wmask = self.words() - 1;
        let mut bits = bitmap(hw) & (u64::MAX << hb);
        for k in 0..span_words {
            let w = (hw + k) & wmask;
            if k > 0 {
                bits = bitmap(w);
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Exact FR-FCFS-lite pick: the queued slot with the maximal
    /// `(priority, row_hit, oldest)` key, commands waiting longer than
    /// [`AGE_CAP`] escalated to the top priority.
    ///
    /// Arrival times never decrease in ring order, so the aged commands
    /// are a prefix of it. If the oldest command is aged, the top class is
    /// every aged command plus priority-255 ones: the winner is its oldest
    /// row hit (the oldest hit overall if that is aged, else the oldest
    /// priority-255 hit), otherwise the oldest command. If not, nothing is
    /// aged: the winner is the highest priority's oldest row hit, otherwise
    /// its oldest command. Keys are unique, so this finds the same winner
    /// as a scan of every key.
    #[inline]
    fn pick(&self, now: Cycles) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let words = self.words();
        let aged = |slot: usize| now.saturating_sub(self.arrival_time[slot]) > AGE_CAP;
        let head = self.head as usize & self.mask();
        if aged(head) {
            if let Some(s) = self.first_from_head(|w| self.hit[w]).filter(|&s| aged(s)) {
                return Some(s);
            }
            let p255 = self.prios.iter().position(|&p| p == u8::MAX);
            if let Some(c) = p255.filter(|&c| self.prio_len[c] > 0) {
                let row = &self.prio_slots[c * words..(c + 1) * words];
                if let Some(s) = self.first_from_head(|w| self.hit[w] & row[w]) {
                    return Some(s);
                }
            }
            return Some(head);
        }
        let mut top = 0;
        for c in 1..self.prios.len() {
            let higher = self.prio_len[top] == 0 || self.prios[c] > self.prios[top];
            if self.prio_len[c] > 0 && higher {
                top = c;
            }
        }
        let row = &self.prio_slots[top * words..(top + 1) * words];
        self.first_from_head(|w| self.hit[w] & row[w]).or_else(|| self.first_from_head(|w| row[w]))
    }

    /// Consistency of the ring's bitmaps, placement and age order.
    fn check(&self) -> Result<(), String> {
        let words = self.words();
        let pop: usize = self.occ.iter().map(|w| w.count_ones() as usize).sum();
        if pop != self.len {
            return Err(format!("slab occupancy {pop} disagrees with len {}", self.len));
        }
        for (w, &word) in self.occ.iter().enumerate() {
            if self.hit[w] & !word != 0 {
                return Err(format!("hit bit set on free slot (word {w})"));
            }
            let banks = (0..self.banks).fold(0, |u, b| u | self.bank_slots[b * words + w]);
            if banks != word {
                return Err(format!("bank slot bitmaps disagree with occupancy (word {w})"));
            }
            let prios = (0..self.prios.len()).fold(0, |u, c| u | self.prio_slots[c * words + w]);
            if prios != word {
                return Err(format!("priority slot bitmaps disagree with occupancy (word {w})"));
            }
        }
        for (c, &n) in self.prio_len.iter().enumerate() {
            let row = &self.prio_slots[c * words..(c + 1) * words];
            let pop: usize = row.iter().map(|w| w.count_ones() as usize).sum();
            if pop != n {
                let p = self.prios[c];
                return Err(format!("priority {p} bitmap holds {pop}, count says {n}"));
            }
        }
        let mut last = 0;
        let mut seen = 0;
        for n in self.head..self.next {
            let slot = n as usize & self.mask();
            if self.occ[slot / 64] >> (slot % 64) & 1 == 0 {
                if n == self.head {
                    return Err(format!("head arrival {n} is not queued"));
                }
                continue;
            }
            if self.cmds[slot].num != n {
                let held = self.cmds[slot].num;
                return Err(format!("slot {slot} holds arrival {held}, expected {n}"));
            }
            if self.arrival_time[slot] < last {
                return Err(format!("arrival time decreases in ring order at arrival {n}"));
            }
            last = self.arrival_time[slot];
            seen += 1;
        }
        if seen != self.len {
            let outside = self.len - seen;
            return Err(format!("{outside} queued commands lie outside arrivals head..next"));
        }
        Ok(())
    }
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: Cycles,
    slab: CmdSlab,
    in_flight: usize,
    // Stats.
    reads: u64,
    writes: u64,
    bytes: u64,
    activations: u64,
    row_hits: u64,
    row_conflicts: u64,
    busy_cycles: Cycles,
    queued_total: u64,
    max_queue: u64,
    /// Sum of queue depths sampled at each enqueue (for average depth).
    depth_sum: u64,
    /// Queued commands per [`BlameClass`] (kept in lockstep with the slab
    /// so traced enqueues snapshot queue composition in O(1)).
    queued_by_class: [u64; 3],
    // Tracing-only state (empty when tracing is off).
    /// `(token, class)` of every in-flight command, for queue-composition
    /// snapshots. Completions remove the first matching token.
    live: Vec<(u64, BlameClass)>,
    /// In-flight commands per class (mirrors `live`).
    live_by_class: [u64; 3],
    /// Blame decompositions of traced commands started since the last
    /// [`MemDevice::take_cmd_traces`] drain.
    records: Vec<CmdTrace>,
}

impl Channel {
    fn new(banks: usize) -> Self {
        Self {
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                    row_hits: 0,
                    row_conflicts: 0,
                    last_class: BlameClass::Background,
                };
                banks
            ],
            bus_free_at: 0,
            slab: CmdSlab::new(banks),
            in_flight: 0,
            reads: 0,
            writes: 0,
            bytes: 0,
            activations: 0,
            row_hits: 0,
            row_conflicts: 0,
            busy_cycles: 0,
            queued_total: 0,
            max_queue: 0,
            depth_sum: 0,
            queued_by_class: [0; 3],
            live: Vec::new(),
            live_by_class: [0; 3],
            records: Vec::new(),
        }
    }

    /// Queue a command. Arrival times on a channel must never go
    /// backwards: the ring's age order depends on it.
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        amap: &AddrMap,
        demand_first: bool,
        tracing: bool,
        cmd: MemCmd,
        now: Cycles,
        class: BlameClass,
        tag: Option<TraceTag>,
    ) {
        debug_assert!(
            now >= self.slab.last_arrival,
            "channel arrival time went backwards: {now} < {}",
            self.slab.last_arrival
        );
        let (bank, row) = amap.map(cmd.addr);
        let trace = if tracing {
            tag.map(|tag| {
                let mut ahead = [0u64; 3];
                for (i, a) in ahead.iter_mut().enumerate() {
                    *a = self.queued_by_class[i] + self.live_by_class[i];
                }
                TracedInfo { tag, ahead }
            })
        } else {
            None
        };
        let (num, slot) = self.slab.alloc_slot();
        let pclass = self.slab.prio_class(if demand_first { cmd.priority } else { 0 });
        let s = &mut self.slab;
        s.last_arrival = now;
        s.arrival_time[slot] = now;
        s.row[slot] = row;
        s.cmds[slot] = Queued {
            num,
            token: cmd.token,
            bank,
            bytes: cmd.bytes,
            pclass,
            write: cmd.is_write,
            class,
            trace,
        };
        let hit = self.banks[bank as usize].open_row == Some(row);
        s.set_occupied(slot, hit);
        self.queued_by_class[class.idx()] += 1;
        self.queued_total += 1;
        self.max_queue = self.max_queue.max(self.slab.len as u64);
        self.depth_sum += self.slab.len as u64;
    }

    /// Start as many queued commands as pipelining allows, appending each
    /// (with its completion time) to `out`. `ch` is this channel's index,
    /// echoed into [`StartedCmd::channel`].
    fn pump(
        &mut self,
        timing: &DramTiming,
        tracing: bool,
        iv_pool: &mut Vec<Vec<SpanInterval>>,
        ch: usize,
        now: Cycles,
        out: &mut Vec<StartedCmd>,
    ) {
        while self.in_flight < PIPELINE_DEPTH {
            let Some(slot) = self.slab.pick(now) else { break };
            let (done_at, token) = self.start_slot(timing, tracing, iv_pool, now, slot);
            self.in_flight += 1;
            out.push(StartedCmd {
                done_at,
                token,
                channel: ch,
            });
        }
    }

    /// Retire one in-flight command (with its token when tracing, so the
    /// queue-composition bookkeeping can drop its live entry).
    fn complete(&mut self, tracing: bool, token: u64) {
        debug_assert!(self.in_flight > 0, "completion without in-flight command");
        self.in_flight -= 1;
        if tracing {
            if let Some(i) = self.live.iter().position(|&(t, _)| t == token) {
                let (_, class) = self.live.swap_remove(i);
                self.live_by_class[class.idx()] -= 1;
            }
        }
    }

    /// Compute timing for the picked slot, free it, mutate bank/bus state,
    /// return `(completion, token)`. When tracing, also records the
    /// command's blame decomposition: queue wait split across the classes
    /// ahead of it, bank-busy wait charged to the bank's previous occupant,
    /// row-conflict penalty, bus wait, and intrinsic service time — tiling
    /// `[arrival, data_end)` exactly.
    fn start_slot(
        &mut self,
        timing: &DramTiming,
        tracing: bool,
        iv_pool: &mut Vec<Vec<SpanInterval>>,
        now: Cycles,
        slot: usize,
    ) -> (Cycles, u64) {
        let s = &self.slab;
        let Queued { token, bytes: cmd_bytes, write: is_write, class, trace, .. } = s.cmds[slot];
        let bank_idx = s.cmds[slot].bank as usize;
        let row = s.row[slot];
        let arrival_time = s.arrival_time[slot];
        let burst = timing.burst_cycles(cmd_bytes);
        let bank = self.banks[bank_idx];

        // `bank.ready_at` is the earliest cycle the bank accepts its next
        // column command; CAS is pure latency so row hits pipeline at burst
        // (tCCD) granularity and a streaming bank saturates the bus.
        let t0 = now.max(bank.ready_at);
        let (prep, activated, row_hit, conflict) = match bank.open_row {
            Some(r) if r == row => (0, false, true, false),
            Some(_) => (timing.t_rp + timing.t_rcd, true, false, true),
            None => (timing.t_rcd, true, false, false),
        };
        let col_time = t0 + prep;
        let data_start = (col_time + timing.t_cas).max(self.bus_free_at);
        let data_end = data_start + burst;

        if tracing {
            if let Some(info) = trace {
                let mut iv: Vec<SpanInterval> =
                    iv_pool.pop().unwrap_or_else(|| Vec::with_capacity(6));
                if now > arrival_time {
                    if info.tag.token_stalled {
                        iv.push(SpanInterval {
                            cause: BlameCause::TokenStall,
                            start: arrival_time,
                            end: now,
                        });
                    } else {
                        iv.extend(split_queue_wait(arrival_time, now, info.ahead));
                    }
                }
                if t0 > now {
                    iv.push(SpanInterval {
                        cause: bank.last_class.queue_cause(),
                        start: now,
                        end: t0,
                    });
                }
                if prep > 0 {
                    iv.push(SpanInterval {
                        cause: if conflict { BlameCause::RowConflict } else { BlameCause::Service },
                        start: t0,
                        end: col_time,
                    });
                }
                iv.push(SpanInterval {
                    cause: BlameCause::Service,
                    start: col_time,
                    end: col_time + timing.t_cas,
                });
                if data_start > col_time + timing.t_cas {
                    iv.push(SpanInterval {
                        cause: BlameCause::BusBusy,
                        start: col_time + timing.t_cas,
                        end: data_start,
                    });
                }
                iv.push(SpanInterval {
                    cause: BlameCause::Service,
                    start: data_start,
                    end: data_end,
                });
                coalesce(&mut iv);
                self.records.push(CmdTrace { span: info.tag.span, intervals: iv });
            }
            self.banks[bank_idx].last_class = class;
            self.live.push((token, class));
            self.live_by_class[class.idx()] += 1;
        }

        self.slab.clear_slot(slot);
        self.queued_by_class[class.idx()] -= 1;
        self.banks[bank_idx].open_row = Some(row);
        self.banks[bank_idx].ready_at = col_time + burst;
        self.bus_free_at = data_end;
        // The open row changed (or was confirmed): refresh row-hit bits of
        // everything still queued on this bank.
        self.slab.rehit_bank(bank_idx, row);

        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.bytes += (cmd_bytes as u64).div_ceil(64) * 64;
        if activated {
            self.activations += 1;
        }
        if row_hit {
            self.row_hits += 1;
            self.banks[bank_idx].row_hits += 1;
        }
        if conflict {
            self.row_conflicts += 1;
            self.banks[bank_idx].row_conflicts += 1;
        }
        self.busy_cycles += burst;

        (data_end, token)
    }
}

/// Aggregate device statistics (summed over channels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read commands served.
    pub reads: u64,
    /// Write commands served.
    pub writes: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Row activations (closed-bank or row-conflict accesses).
    pub activations: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that found a different row open (precharge + activate).
    pub row_conflicts: u64,
    /// Cycles any bus spent transferring data (sum over channels).
    pub busy_cycles: Cycles,
    /// Commands ever enqueued.
    pub enqueued: u64,
    /// Peak pending-queue length observed on any channel.
    pub max_queue: u64,
}

/// A multi-channel DRAM device.
#[derive(Debug)]
pub struct MemDevice {
    timing: DramTiming,
    amap: AddrMap,
    channels: Vec<Channel>,
    /// Latency-optimised scheduling: honour command priorities (demand
    /// first). Bandwidth-optimised devices (the slow tier behind the cache)
    /// ignore priorities and run FR-FCFS.
    demand_first: bool,
    /// Request-span tracing (see `h2_sim_core::trace_span`). Off by
    /// default; when off, no tracing state is touched and timing is
    /// byte-identical to a device that never heard of tracing.
    tracing: bool,
    /// Recycled interval buffers for traced-command blame decompositions:
    /// [`Self::start_slot`] pops one per traced command instead of
    /// allocating, and [`Self::reclaim_traces`] returns drained buffers
    /// here. Steady state allocates nothing.
    iv_pool: Vec<Vec<SpanInterval>>,
}

impl MemDevice {
    /// Create a latency-optimised device (honours priorities).
    pub fn new(timing: DramTiming, channels: usize) -> Self {
        Self::with_scheduling(timing, channels, true)
    }

    /// Create a device with an explicit scheduling flavour.
    pub fn with_scheduling(timing: DramTiming, channels: usize, demand_first: bool) -> Self {
        assert!(channels > 0, "device needs at least one channel");
        let banks = timing.banks_per_channel;
        let amap = AddrMap::new(timing.row_bytes, banks as u64);
        Self {
            timing,
            amap,
            channels: (0..channels).map(|_| Channel::new(banks)).collect(),
            demand_first,
            tracing: false,
            iv_pool: Vec::new(),
        }
    }

    /// Enable or disable span tracing. Tracing never alters command
    /// timing — it only records a blame decomposition for traced commands.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Device-level consistency check for invariant monitors: per-channel
    /// in-flight occupancy must respect the pipeline depth (release-build
    /// counterpart of the `debug_assert` in [`Self::on_complete`]), and the
    /// pending ring must be consistent: its bitmaps agree with each other,
    /// each queued command sits at its arrival number modulo the capacity,
    /// and arrival times never decrease in ring order.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (ch, c) in self.channels.iter().enumerate() {
            if c.in_flight > PIPELINE_DEPTH {
                return Err(format!(
                    "channel {ch}: {} commands in flight exceeds pipeline depth {PIPELINE_DEPTH}",
                    c.in_flight
                ));
            }
            c.slab.check().map_err(|e| format!("channel {ch}: {e}"))?;
        }
        Ok(())
    }

    /// Enqueue a command on channel `ch` at time `now`. Call [`Self::pump`]
    /// afterwards to start whatever the scheduler allows.
    pub fn enqueue(&mut self, ch: usize, cmd: MemCmd, now: Cycles) {
        self.enqueue_traced(ch, cmd, now, BlameClass::Background, None);
    }

    /// [`Self::enqueue`] with tracing context: the requester `class` (used
    /// for queue-composition snapshots and bank blame when tracing is on)
    /// and, for the demand command of a sampled transaction, its span tag.
    pub fn enqueue_traced(
        &mut self,
        ch: usize,
        cmd: MemCmd,
        now: Cycles,
        class: BlameClass,
        tag: Option<TraceTag>,
    ) {
        self.channels[ch].enqueue(
            &self.amap,
            self.demand_first,
            self.tracing,
            cmd,
            now,
            class,
            tag,
        );
    }

    /// Start as many commands as pipelining allows on channel `ch`,
    /// appending each started command (with completion time) to `out`.
    pub fn pump(&mut self, ch: usize, now: Cycles, out: &mut Vec<StartedCmd>) {
        self.channels[ch].pump(&self.timing, self.tracing, &mut self.iv_pool, ch, now, out);
    }

    /// Notify the device that a previously started command on `ch` finished.
    /// Follow with [`Self::pump`] to start successors.
    pub fn on_complete(&mut self, ch: usize) {
        self.channels[ch].complete(false, 0);
    }

    /// [`Self::on_complete`] with the finished command's token, so the
    /// tracing queue-composition bookkeeping can retire it.
    pub fn on_complete_traced(&mut self, ch: usize, token: u64) {
        let tracing = self.tracing;
        self.channels[ch].complete(tracing, token);
    }

    /// Drain the blame decompositions of traced commands started on `ch`
    /// since the last drain.
    pub fn take_cmd_traces(&mut self, ch: usize) -> Vec<CmdTrace> {
        std::mem::take(&mut self.channels[ch].records)
    }

    /// Allocation-free variant of [`Self::take_cmd_traces`]: swap the
    /// channel's record buffer with a caller-provided empty one (typically
    /// the one handed back by the last [`Self::reclaim_traces`]), so the
    /// channel keeps its capacity. Pair with `reclaim_traces` after the
    /// records are absorbed.
    pub fn take_traces_into(&mut self, ch: usize, mut swap: Vec<CmdTrace>) -> Vec<CmdTrace> {
        debug_assert!(swap.is_empty(), "swap-in buffer must be empty");
        std::mem::swap(&mut self.channels[ch].records, &mut swap);
        swap
    }

    /// Return drained trace records: their interval buffers go back to the
    /// pool for reuse by later traced commands, and the emptied outer
    /// vector is handed back for the next [`Self::take_traces_into`].
    pub fn reclaim_traces(&mut self, mut recs: Vec<CmdTrace>) -> Vec<CmdTrace> {
        for rec in recs.drain(..) {
            let mut iv = rec.intervals;
            iv.clear();
            self.iv_pool.push(iv);
        }
        recs
    }

    /// Whether channel `ch` has undrained trace records. Lets callers skip
    /// the [`Self::take_traces_into`]/[`Self::reclaim_traces`] round trip
    /// on the common no-records path (only sampled commands produce
    /// records, so with 1-in-N span sampling most drains would be empty).
    #[inline]
    pub fn has_traces(&self, ch: usize) -> bool {
        !self.channels[ch].records.is_empty()
    }

    /// Aggregate statistics over all channels.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for c in &self.channels {
            s.reads += c.reads;
            s.writes += c.writes;
            s.bytes += c.bytes;
            s.activations += c.activations;
            s.row_hits += c.row_hits;
            s.row_conflicts += c.row_conflicts;
            s.busy_cycles += c.busy_cycles;
            s.enqueued += c.queued_total;
            s.max_queue = s.max_queue.max(c.max_queue);
        }
        s
    }

    /// Emit per-channel (and optionally per-bank) telemetry into `m`.
    ///
    /// Counter names are relative (`ch0.reads`, `ch0.bank3.row_hits`);
    /// callers choose the absolute scope (`mem.fast`, `mem.slow`). Queue
    /// depth gauges report the arrival-averaged and peak pending-queue
    /// lengths per channel. `per_bank` adds one hit/conflict counter pair
    /// per bank — useful in end-of-run totals, too wide for epoch frames.
    pub fn collect_metrics(&self, m: &mut h2_sim_core::ScopedMetrics<'_>, per_bank: bool) {
        for (i, c) in self.channels.iter().enumerate() {
            let mut ch = m.scoped(format_args!("ch{i}"));
            ch.set_counter("reads", c.reads);
            ch.set_counter("writes", c.writes);
            ch.set_counter("bytes", c.bytes);
            ch.set_counter("activations", c.activations);
            ch.set_counter("row_hits", c.row_hits);
            ch.set_counter("row_conflicts", c.row_conflicts);
            ch.set_counter("busy_cycles", c.busy_cycles);
            ch.set_counter("enqueued", c.queued_total);
            ch.set_gauge("queue_peak", c.max_queue as f64);
            ch.set_gauge(
                "queue_avg",
                if c.queued_total > 0 {
                    c.depth_sum as f64 / c.queued_total as f64
                } else {
                    0.0
                },
            );
            if per_bank {
                for (b, bank) in c.banks.iter().enumerate() {
                    let mut bk = ch.scoped(format_args!("bank{b}"));
                    bk.set_counter("row_hits", bank.row_hits);
                    bk.set_counter("row_conflicts", bank.row_conflicts);
                }
            }
        }
    }

    /// Per-channel bytes transferred (for partitioning/balance checks).
    pub fn channel_bytes(&self) -> Vec<u64> {
        self.channels.iter().map(|c| c.bytes).collect()
    }

    /// Energy consumed so far, given the elapsed simulated window.
    pub fn energy(&self, elapsed: Cycles) -> EnergyBreakdown {
        let s = self.stats();
        EnergyBreakdown::from_counts(
            &self.timing.energy,
            s.bytes,
            s.activations,
            self.channels.len(),
            elapsed,
        )
    }

    /// Average achieved bandwidth in GB/s over `elapsed` cycles.
    pub fn achieved_gbs(&self, elapsed: Cycles) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        h2_sim_core::units::bandwidth_gbs(self.stats().bytes, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingPreset;

    fn dev(preset: TimingPreset, ch: usize) -> MemDevice {
        MemDevice::new(preset.timing(), ch)
    }

    fn run_one(dev: &mut MemDevice, ch: usize, now: Cycles, cmd: MemCmd) -> Cycles {
        dev.enqueue(ch, cmd, now);
        let mut out = Vec::new();
        dev.pump(ch, now, &mut out);
        assert_eq!(out.len(), 1);
        dev.on_complete(ch);
        out[0].done_at
    }

    fn rd(addr: u64, bytes: u32) -> MemCmd {
        MemCmd {
            addr,
            bytes,
            is_write: false,
            priority: 0,
            token: 0,
        }
    }

    #[test]
    fn closed_bank_read_latency() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        let t = TimingPreset::Ddr4.timing();
        let done = run_one(&mut d, 0, 100, rd(0, 64));
        assert_eq!(done, 100 + t.t_rcd + t.t_cas + t.burst_64b);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        let first = run_one(&mut d, 0, 0, rd(0, 64));
        // Same row: only CAS + burst after bank ready.
        let hit = run_one(&mut d, 0, first, rd(64, 64));
        assert_eq!(hit - first, t.t_cas + t.burst_64b);
        // Different row, same bank: full conflict penalty.
        let conflict_addr = t.row_bytes * t.banks_per_channel as u64; // same bank, next row
        let miss = run_one(&mut d, 0, hit, rd(conflict_addr, 64));
        assert_eq!(miss - hit, t.t_rp + t.t_rcd + t.t_cas + t.burst_64b);
    }

    #[test]
    fn bus_serialises_bursts() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        // Two reads to different banks, same instant: second's burst must
        // start after the first's burst ends.
        d.enqueue(0, rd(0, 64), 0);
        d.enqueue(0, rd(t.row_bytes, 64), 0); // different bank
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        assert_eq!(out.len(), 2);
        let a = out[0].done_at;
        let b = out[1].done_at;
        assert!(b >= a + t.burst_64b, "bursts overlap: {a} {b}");
        // But bank prep overlapped: total < 2 sequential closed accesses.
        assert!(b < 2 * (t.t_rcd + t.t_cas + t.burst_64b));
    }

    #[test]
    fn priority_wins_over_age() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        // Fill the pipeline so later enqueues stay queued.
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue(
                0,
                MemCmd {
                    token: i,
                    ..rd(i << 20, 64)
                },
                0,
            );
        }
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        assert_eq!(out.len(), PIPELINE_DEPTH);
        out.clear();
        // Now queue a low-priority old command and a high-priority young one.
        d.enqueue(
            0,
            MemCmd {
                token: 100,
                priority: 0,
                ..rd(0, 64)
            },
            50,
        );
        d.enqueue(
            0,
            MemCmd {
                token: 200,
                priority: 3,
                ..rd(64, 64)
            },
            50,
        );
        d.on_complete(0);
        d.pump(0, 50, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 200, "high priority must be served first");
    }

    #[test]
    fn fcfs_among_equal_priority() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        for i in 0..PIPELINE_DEPTH as u64 {
            d.enqueue(0, MemCmd { token: i, ..rd(0, 64) }, 0);
        }
        let mut out = Vec::new();
        d.pump(0, 0, &mut out);
        out.clear();
        // Two equal-priority commands to closed banks: older first.
        let t = TimingPreset::Ddr4.timing();
        d.enqueue(0, MemCmd { token: 10, ..rd(3 * t.row_bytes, 64) }, 10);
        d.enqueue(0, MemCmd { token: 11, ..rd(5 * t.row_bytes, 64) }, 10);
        d.on_complete(0);
        d.pump(0, 10, &mut out);
        assert_eq!(out[0].token, 10);
    }

    #[test]
    fn streaming_saturates_bus_bandwidth() {
        // Issue a long run of sequential 256 B reads; achieved bandwidth
        // should approach the peak.
        let t = TimingPreset::Hbm2eSuper.timing();
        let mut d = dev(TimingPreset::Hbm2eSuper, 1);
        let mut now = 0;
        let n = 2000u64;
        let mut done_times = Vec::new();
        let mut out = Vec::new();
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut inflight: Vec<Cycles> = Vec::new();
        while completed < n {
            while issued < n && inflight.len() < 32 {
                d.enqueue(0, rd(issued * 256, 256), now);
                issued += 1;
                d.pump(0, now, &mut out);
                for s in out.drain(..) {
                    inflight.push(s.done_at);
                }
            }
            inflight.sort_unstable();
            let t0 = inflight.remove(0);
            now = t0;
            d.on_complete(0);
            d.pump(0, now, &mut out);
            for s in out.drain(..) {
                inflight.push(s.done_at);
            }
            completed += 1;
            done_times.push(t0);
        }
        let elapsed = *done_times.last().unwrap();
        let gbs = d.achieved_gbs(elapsed);
        assert!(
            gbs > 0.8 * t.peak_gbs(),
            "streaming should near-saturate: {gbs:.1} vs peak {:.1}",
            t.peak_gbs()
        );
    }

    #[test]
    fn stats_count_reads_writes_bytes() {
        let mut d = dev(TimingPreset::Ddr4, 2);
        run_one(&mut d, 0, 0, rd(0, 64));
        run_one(
            &mut d,
            1,
            0,
            MemCmd {
                is_write: true,
                ..rd(128, 256)
            },
        );
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes, 64 + 256);
        assert_eq!(s.enqueued, 2);
        assert_eq!(d.channel_bytes(), vec![64, 256]);
    }

    #[test]
    fn completion_never_before_arrival() {
        let mut d = dev(TimingPreset::Hbm2eSuper, 1);
        let done = run_one(&mut d, 0, 12345, rd(0, 64));
        assert!(done > 12345);
    }

    #[test]
    fn telemetry_counts_hits_and_conflicts_per_bank() {
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        let first = run_one(&mut d, 0, 0, rd(0, 64));
        let hit = run_one(&mut d, 0, first, rd(64, 64)); // same row: hit
        let conflict_addr = t.row_bytes * t.banks_per_channel as u64; // same bank, next row
        run_one(&mut d, 0, hit, rd(conflict_addr, 64));
        let s = d.stats();
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_conflicts, 1);
        let mut reg = h2_sim_core::MetricsRegistry::new(true);
        d.collect_metrics(&mut reg.scoped("mem"), true);
        assert_eq!(reg.counter("mem.ch0.reads"), 3);
        assert_eq!(reg.counter("mem.ch0.row_hits"), 1);
        assert_eq!(reg.counter("mem.ch0.bank0.row_hits"), 1);
        assert_eq!(reg.counter("mem.ch0.bank0.row_conflicts"), 1);
        assert!(reg.gauge("mem.ch0.queue_avg").is_some());
    }

    #[test]
    fn tracing_decomposition_tiles_lifetime() {
        use h2_sim_core::trace_span::{tiles_exactly, SpanId, TraceTag};
        let t = TimingPreset::Ddr4.timing();
        let mut d = dev(TimingPreset::Ddr4, 1);
        d.set_tracing(true);
        // Occupy the bank+bus first so the traced command really waits.
        let mut out = Vec::new();
        d.enqueue_traced(0, rd(0, 256), 0, BlameClass::GpuDemand, None);
        d.pump(0, 0, &mut out);
        let tag = TraceTag { span: SpanId(7), token_stalled: false };
        d.enqueue_traced(
            0,
            MemCmd { token: 9, ..rd(64, 64) },
            5,
            BlameClass::CpuDemand,
            Some(tag),
        );
        d.pump(0, 5, &mut out);
        assert_eq!(out.len(), 2);
        let done = out[1].done_at;
        let recs = d.take_cmd_traces(0);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].span, SpanId(7));
        assert!(
            tiles_exactly(&recs[0].intervals, 5, done),
            "decomposition must tile [5, {done}): {:?}",
            recs[0].intervals
        );
        // Second drain is empty; completions retire live entries.
        assert!(d.take_cmd_traces(0).is_empty());
        d.on_complete_traced(0, 0);
        d.on_complete_traced(0, 9);
        // Cycle-identical to the untraced path.
        let mut plain = dev(TimingPreset::Ddr4, 1);
        plain.enqueue(0, rd(0, 256), 0);
        let mut pout = Vec::new();
        plain.pump(0, 0, &mut pout);
        plain.enqueue(0, MemCmd { token: 9, ..rd(64, 64) }, 5);
        plain.pump(0, 5, &mut pout);
        assert_eq!(pout[1].done_at, done);
        let _ = t;
    }

    #[test]
    fn energy_accumulates() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        run_one(&mut d, 0, 0, rd(0, 256));
        let e = d.energy(1000);
        assert!(e.dynamic_rw_j > 0.0);
        assert!(e.act_pre_j > 0.0);
        assert!(e.static_j > 0.0);
    }

    #[test]
    fn addr_map_shift_path_matches_division() {
        for (row_bytes, banks) in [(4096u64, 64u64), (8192, 32), (4096, 16)] {
            let m = AddrMap::new(row_bytes, banks);
            assert!(m.pow2);
            for addr in [0u64, 63, 64, 4095, 4096, 1 << 20, 0xDEAD_BEEF, u64::MAX / 2] {
                let rg = addr / row_bytes;
                assert_eq!(m.map(addr), ((rg % banks) as u32, rg / banks), "addr {addr:#x}");
            }
        }
        // Non-power-of-two fallback stays exact too.
        let m = AddrMap::new(3000, 12);
        assert!(!m.pow2);
        let rg = 123_456_789u64 / 3000;
        assert_eq!(m.map(123_456_789), ((rg % 12) as u32, rg / 12));
    }

    /// Shallow traffic cycles through the 64-slot ring without ever
    /// growing it: drained slots are reused as arrivals wrap around.
    #[test]
    fn slab_reuses_slots_without_growth() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut out = Vec::new();
        for round in 0..100u64 {
            for i in 0..8 {
                d.enqueue(0, MemCmd { token: round * 8 + i, ..rd(i * 64, 64) }, round);
            }
            d.pump(0, round, &mut out);
            for _ in 0..out.len() {
                d.on_complete(0);
            }
            out.clear();
        }
        let s = &d.channels[0].slab;
        assert_eq!(s.occ.len(), 1, "ring must stay at 64 slots");
        assert_eq!(s.next, 800, "arrivals wrapped the ring many times");
        d.check_invariants().unwrap();
    }

    /// Brute-force reference pick: the queued slot with the maximal
    /// `(priority, row_hit, oldest)` tuple key, row hits taken from the
    /// banks' open rows rather than the ring's hit bitmap.
    fn reference_pick(c: &Channel, now: Cycles) -> Option<usize> {
        let s = &c.slab;
        let mut best: Option<((u8, bool, u64), usize)> = None;
        for slot in 0..s.occ.len() * 64 {
            if s.occ[slot / 64] >> (slot % 64) & 1 == 0 {
                continue;
            }
            let q = &s.cmds[slot];
            let hit = c.banks[q.bank as usize].open_row == Some(s.row[slot]);
            let prio = if now.saturating_sub(s.arrival_time[slot]) > AGE_CAP {
                u8::MAX
            } else {
                s.prios[q.pclass as usize]
            };
            let key = (prio, hit, u64::MAX - q.num);
            if best.is_none_or(|(k, _)| key > k) {
                best = Some((key, slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// The ring's pick must equal the brute-force tuple scan on every pick
    /// of seeded churn: interleaved enqueue bursts, pumps and completions,
    /// priorities {0, 1, 2, 255}, aged and non-aged heads, and arrival
    /// spans that force the ring to grow and wrap.
    #[test]
    fn pick_matches_reference_scan_under_churn() {
        let t = TimingPreset::Hbm2eSuper.timing();
        let (mut grown, mut wrapped, mut aged_picks, mut fresh_picks) = (0, 0, 0, 0);
        for seed in 0..48u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x243F_6A88_85A3_08D3;
            let mut rng = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 11
            };
            let mut d = MemDevice::with_scheduling(t.clone(), 1, seed % 8 != 7);
            let mut now: Cycles = 0;
            let mut inflight: Vec<Cycles> = Vec::new();
            let mut token = 0u64;
            // A few rows per bank so row hits are common.
            let rows = 1 + rng() % 4;
            for _ in 0..400 {
                match rng() % 8 {
                    // Enqueue burst; deep ones outgrow the ring.
                    0..=2 => {
                        let n = 1 + rng() % if rng() % 4 == 0 { 120 } else { 12 };
                        for _ in 0..n {
                            let r = rng();
                            let bank = r % t.banks_per_channel as u64;
                            let row = (r >> 8) % rows;
                            d.enqueue(
                                0,
                                MemCmd {
                                    addr: (row * t.banks_per_channel as u64 + bank) * t.row_bytes
                                        + (r >> 16) % t.row_bytes,
                                    bytes: 64,
                                    is_write: r & 1 == 0,
                                    priority: [0, 1, 2, u8::MAX][(r >> 20) as usize % 4],
                                    token,
                                },
                                now,
                            );
                            token += 1;
                        }
                    }
                    // Time passes: briefly (heads stay fresh) or past AGE_CAP.
                    3 | 4 => now += if rng() % 3 == 0 { 100 + rng() % 400 } else { rng() % 20 },
                    // Completions, earliest first.
                    _ => {
                        inflight.sort_unstable();
                        let n = (1 + rng() % 12).min(inflight.len() as u64) as usize;
                        for done in inflight.drain(..n) {
                            now = now.max(done);
                            d.on_complete(0);
                        }
                    }
                }
                // Pump, checking every pick against the reference.
                let c = &mut d.channels[0];
                while c.in_flight < PIPELINE_DEPTH {
                    let picked = c.slab.pick(now);
                    assert_eq!(picked, reference_pick(c, now), "seed {seed} now {now}");
                    let Some(slot) = picked else { break };
                    if c.slab.len > 0 {
                        let head = c.slab.head as usize & c.slab.mask();
                        if now.saturating_sub(c.slab.arrival_time[head]) > AGE_CAP {
                            aged_picks += 1;
                        } else {
                            fresh_picks += 1;
                        }
                    }
                    let (done, _) = c.start_slot(&d.timing, false, &mut d.iv_pool, now, slot);
                    c.in_flight += 1;
                    inflight.push(done);
                }
                let s = &d.channels[0].slab;
                grown += (s.occ.len() > 1) as u32;
                wrapped += (s.head > (s.occ.len() * 64) as u64) as u32;
                d.check_invariants().unwrap();
            }
        }
        assert!(grown > 0 && wrapped > 0, "churn must grow and wrap the ring");
        assert!(aged_picks > 0 && fresh_picks > 0, "churn must see aged and fresh heads");
    }

    /// A low-priority command that never ages (time stands still) while
    /// higher-priority traffic churns past it stretches the arrival span
    /// far beyond the queue depth: the ring grows to cover the span and
    /// every pick stays exact.
    #[test]
    fn starved_head_grows_the_ring_by_span() {
        let mut d = dev(TimingPreset::Ddr4, 1);
        let mut out = Vec::new();
        d.enqueue(0, MemCmd { token: 0, ..rd(0, 64) }, 0);
        for i in 1..PIPELINE_DEPTH as u64 {
            d.enqueue(0, MemCmd { token: i, priority: 2, ..rd(i << 20, 64) }, 0);
        }
        for i in 0..300u64 {
            d.enqueue(0, MemCmd { token: 1000 + i, priority: 1, ..rd(i << 13, 64) }, 0);
            d.pump(0, 0, &mut out);
            let c = &d.channels[0];
            assert_eq!(c.slab.pick(0), reference_pick(c, 0));
            if !out.is_empty() {
                d.on_complete(0);
            }
            out.clear();
            assert!(d.channels[0].slab.len <= 3, "queue stays shallow");
        }
        let s = &d.channels[0].slab;
        assert_eq!(s.head, 0, "the priority-0 command is still queued");
        assert_eq!(s.occ.len() * 64, 512, "ring covers the 349-arrival span");
        d.check_invariants().unwrap();
    }

    /// Deep alternating enqueue/drain traffic across banks keeps every
    /// bitmap invariant intact.
    #[test]
    fn slab_invariants_under_churn() {
        let t = TimingPreset::Hbm2eSuper.timing();
        let mut d = dev(TimingPreset::Hbm2eSuper, 2);
        let mut out = Vec::new();
        let mut inflight = [0usize; 2];
        for i in 0..500u64 {
            let ch = (i % 2) as usize;
            d.enqueue(
                ch,
                MemCmd {
                    addr: (i * 37) % (t.row_bytes * 256),
                    bytes: 64,
                    is_write: i % 3 == 0,
                    priority: (i % 2) as u8,
                    token: i,
                },
                i,
            );
            d.pump(ch, i, &mut out);
            inflight[ch] += out.len();
            out.clear();
            if inflight[ch] > 4 {
                d.on_complete(ch);
                inflight[ch] -= 1;
            }
            if i % 61 == 0 {
                d.check_invariants().unwrap();
            }
        }
        d.check_invariants().unwrap();
    }
}
