#include "ldpc/arch/control_unit.hpp"

namespace corebist::ldpc {

void ControlUnitModel::reset() { st_ = State{}; }

ControlUnitOut ControlUnitModel::eval(const ControlUnitIn& in) const {
  ControlUnitOut out;
  out.mem_addr_a = st_.edge_cnt & 0x3FFu;
  out.mem_addr_b = st_.addr_b & 0x3FFu;
  // Memory A is written during the CN pass (phase 1), memory B during the
  // BN pass (phase 2); writes require mem_ready unless free-running.
  const unsigned free_run = (in.mode >> 2) & 1u;
  const unsigned gate = (in.mem_ready | free_run) & st_.busy & in.step_en;
  out.we_a = gate & (st_.phase == 1u ? 1u : 0u);
  out.we_b = gate & (st_.phase == 2u ? 1u : 0u);
  out.node_sel = st_.node_cnt & 0x7Fu;
  out.phase = st_.phase & 3u;
  out.iter_cnt = st_.iter_cnt & 0x1Fu;
  out.busy = st_.busy;
  out.done = st_.done;
  // stat_flag: dbg_sel rotates which sticky nibble is visible in the low
  // bits; bit 5 always mirrors busy for liveness observation.
  unsigned stats = st_.stats & 0x3Fu;
  stats = ((stats >> (in.dbg_sel & 3u)) | (stats << (6u - (in.dbg_sel & 3u)))) &
          0x3Fu;
  out.stat_flag = (stats & 0x1Fu) | ((st_.busy & 1u) << 5);
  return out;
}

void ControlUnitModel::tick(const ControlUnitIn& in) {
  State next = st_;
  probe(0);

  if (in.clr_stats != 0) {
    probe(1);
    next.stats = 0;
  }

  if (in.start != 0) {
    probe(2);
    next.edge_cnt = 0;
    next.node_cnt = 0;
    next.iter_cnt = 0;
    next.addr_b = 0;
    next.phase = 1;  // begin with the CN pass
    next.busy = 1;
    next.done = 0;
    st_ = next;
    return;
  }

  if (in.halt != 0 && st_.busy != 0) {
    probe(3);
    next.busy = 0;
    next.stats |= 2u;  // halted flag
    st_ = next;
    return;
  }

  const unsigned free_run = (in.mode >> 2) & 1u;
  const bool can_step = st_.busy != 0 && in.step_en != 0 &&
                        (in.mem_ready != 0 || free_run != 0);
  if (!can_step) {
    probe(4);
    if (st_.busy != 0 && in.step_en != 0 && in.mem_ready == 0 &&
        free_run == 0) {
      probe(5);
      next.stats |= 16u;  // mem_wait
    }
    st_ = next;
    return;
  }

  probe(6);
  // Early stop on external parity failure signal during the BN pass.
  if (in.ext_parity_fail != 0) {
    probe(7);
    next.stats |= 1u;
  }

  const unsigned ec_max =
      in.edge_count == 0 ? 0u : ((in.edge_count - 1u) & 0x3FFu);
  const bool edge_wrap = (st_.edge_cnt & 0x3FFu) >= ec_max;

  // Stride accumulator for the interleaved address (modulo cfg_nbits).
  {
    const unsigned stride = strideFor(in.mode & 3u);
    unsigned nb = in.cfg_nbits & 0x3FFu;
    if (nb == 0) nb = 1;
    unsigned a = (st_.addr_b + stride) & 0x7FFu;  // 11-bit intermediate
    if (a >= nb) {
      probe(8);
      a -= nb;
      next.stats |= 4u;  // addr_b wrapped
    }
    next.addr_b = edge_wrap ? 0u : (a & 0x3FFu);
  }

  if (edge_wrap) {
    probe(9);
    next.edge_cnt = 0;
    next.node_cnt = 0;
    // Phase sequence: 1 (CN) -> 2 (BN) -> 3 (iteration bookkeeping) -> 1 ...
    if (st_.phase == 1u) {
      probe(10);
      next.phase = 2;
    } else if (st_.phase == 2u) {
      probe(11);
      next.phase = 3;
    } else {
      probe(12);
      const unsigned it = (st_.iter_cnt + 1u) & 0x1Fu;
      next.iter_cnt = it;
      const unsigned lim = in.cfg_iters & 0x1Fu;
      if (it >= lim || (in.ext_parity_fail == 0 && (st_.stats & 1u) != 0)) {
        probe(13);
        next.busy = 0;
        next.done = 1;
        next.phase = 0;
      } else {
        probe(14);
        next.phase = 1;
      }
    }
  } else {
    probe(15);
    next.edge_cnt = (st_.edge_cnt + 1u) & 0x3FFu;
    // node_sel advances every 8 edges (virtual-node granularity).
    if ((next.edge_cnt & 7u) == 0u) {
      probe(16);
      next.node_cnt = (st_.node_cnt + 1u) & 0x7Fu;
    }
  }

  // Row-degree sanity: processing beyond the configured row space sets a
  // sticky overflow flag.
  if ((st_.node_cnt & 0x7Fu) >= (in.cfg_mrows & 0x7Fu) && st_.phase == 1u) {
    probe(17);
    next.stats |= 8u;
  }
  probe(18);

  st_ = next;
}

std::uint64_t packControlUnitIn(const ControlUnitIn& in) {
  std::uint64_t w = 0;
  int at = 0;
  auto put = [&w, &at](std::uint64_t v, int bits) {
    w |= (v & ((std::uint64_t{1} << bits) - 1u)) << at;
    at += bits;
  };
  put(in.cfg_nbits, 10);
  put(in.cfg_mrows, 9);
  put(in.cfg_iters, 5);
  put(in.mode, 3);
  put(in.start, 1);
  put(in.halt, 1);
  put(in.ext_parity_fail, 1);
  put(in.mem_ready, 1);
  put(in.edge_count, 10);
  put(in.step_en, 1);
  put(in.clr_stats, 1);
  put(in.dbg_sel, 2);
  return w;
}

ControlUnitIn unpackControlUnitIn(std::uint64_t bits) {
  ControlUnitIn in;
  int at = 0;
  auto take = [&bits, &at](int n) {
    const std::uint64_t v = (bits >> at) & ((std::uint64_t{1} << n) - 1u);
    at += n;
    return static_cast<unsigned>(v);
  };
  in.cfg_nbits = take(10);
  in.cfg_mrows = take(9);
  in.cfg_iters = take(5);
  in.mode = take(3);
  in.start = take(1);
  in.halt = take(1);
  in.ext_parity_fail = take(1);
  in.mem_ready = take(1);
  in.edge_count = take(10);
  in.step_en = take(1);
  in.clr_stats = take(1);
  in.dbg_sel = take(2);
  return in;
}

std::uint64_t packControlUnitOut(const ControlUnitOut& out) {
  std::uint64_t w = 0;
  int at = 0;
  auto put = [&w, &at](std::uint64_t v, int bits) {
    w |= (v & ((std::uint64_t{1} << bits) - 1u)) << at;
    at += bits;
  };
  put(out.mem_addr_a, 10);
  put(out.mem_addr_b, 10);
  put(out.we_a, 1);
  put(out.we_b, 1);
  put(out.node_sel, 7);
  put(out.phase, 2);
  put(out.iter_cnt, 5);
  put(out.busy, 1);
  put(out.done, 1);
  put(out.stat_flag, 6);
  return w;
}

}  // namespace corebist::ldpc
