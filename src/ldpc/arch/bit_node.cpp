#include "ldpc/arch/bit_node.hpp"

#include "ldpc/msgpass.hpp"

namespace corebist::ldpc {

namespace {
constexpr int kAccBits = 12;
constexpr int kMsgBits = 8;

int sext(unsigned v, int bits) {
  const unsigned m = 1u << (bits - 1);
  return static_cast<int>((v ^ m)) - static_cast<int>(m);
}
unsigned toBits(int v, int bits) {
  return static_cast<unsigned>(v) & ((1u << bits) - 1u);
}
}  // namespace

int BitNodeModel::applyWidthMode(int v, unsigned sel) {
  switch (sel & 3u) {
    case 0:
      return satClamp(v, 8);
    case 1:
      return satClamp(v, 6);
    case 2:
      return satClamp(v, 4);
    default:
      return satClamp(v, 3);
  }
}

int BitNodeModel::applyScale(int v, unsigned sel) {
  switch (sel & 3u) {
    case 0:
      return v;
    case 1:
      return v - (v >> 2);  // x0.75 (arithmetic shift, rounds toward -inf)
    case 2:
      return v >> 1;  // x0.5
    default:
      return 0;
  }
}

void BitNodeModel::reset() { st_ = State{}; }

BitNodeOut BitNodeModel::eval(const BitNodeIn& in) const {
  BitNodeOut out;
  out.bn_msg = st_.out_msg;
  out.hard_bit = st_.acc < 0 ? 1u : 0u;
  out.soft_out = st_.acc;
  out.out_edge = st_.edge_echo;
  out.out_vnode = st_.vnode_echo;
  // state_dbg = {msg_buf[0][7:4], llr_reg[5:0]}
  out.state_dbg = (toBits(st_.msg_buf[0], 8) >> 4 << 6) |
                  (toBits(st_.llr_reg, 8) & 0x3Fu);
  out.flags = st_.flags;
  out.valid_out = st_.out_valid;
  out.ready = (in.ctrl & (BnCtrl::kAccEn | BnCtrl::kOutEn)) == 0 ? 1u : 0u;
  out.parity_out = st_.parity;
  return out;
}

void BitNodeModel::tick(const BitNodeIn& in) {
  const bool start = (in.ctrl & BnCtrl::kStart) != 0;
  const bool acc_en = (in.ctrl & BnCtrl::kAccEn) != 0;
  const bool out_en = (in.ctrl & BnCtrl::kOutEn) != 0;
  const bool load_llr = (in.ctrl & BnCtrl::kLoadLlr) != 0;
  const bool flush = (in.ctrl & BnCtrl::kFlush) != 0;
  const bool sgn_force = (in.ctrl & BnCtrl::kSgnForce) != 0;
  const bool valid_in = (in.ctrl & BnCtrl::kValidIn) != 0;

  // Input conditioning: width mode then scaling (path_sel constrained port).
  const int masked = applyWidthMode(satClamp(in.cn_msg, kMsgBits),
                                    in.path_sel & 3u);
  probe(0);
  const int scaled = applyScale(masked, (in.path_sel >> 2) & 3u);
  if (scaled == 0) probe(1);

  State next = st_;

  // Channel LLR register.
  if (load_llr) {
    probe(2);
    next.llr_reg = satClamp(in.ch_llr, kMsgBits);
  }

  // Accumulator: seeded with the LLR on start, saturating adds during the
  // accumulate phase.
  bool sat_event = false;
  if (start) {
    probe(3);
    next.acc = satClamp(in.ch_llr, kAccBits);
    next.parity = 0;
    next.flags = 0;
  } else if (acc_en) {
    probe(4);
    const int sum = st_.acc + scaled;
    next.acc = satClamp(sum, kAccBits);
    if (next.acc != sum) {
      probe(5);
      sat_event = true;
    }
  }

  // Message buffer write (accumulate phase) / flush.
  if (flush) {
    probe(6);
    next.msg_buf = {0, 0, 0, 0};
  } else if (acc_en && !start) {
    probe(7);
    next.msg_buf[in.edge_idx & 3u] = scaled;
  }

  // Output phase: all four extrinsic lanes compute in parallel (the building
  // block of the fully-parallel configuration); each lane carries the full
  // width-mode + scaling conditioning of an outgoing message and the active
  // edge's lane is selected. Lane parity (XOR of conditioned lane signs) is
  // a debug flag observing the replicated lanes.
  unsigned lane_par = 0;
  int selected = 0;
  {
    const int total8 = satClamp(st_.acc, kMsgBits);
    for (int lane = 0; lane < 4; ++lane) {
      const int diff = total8 - st_.msg_buf[static_cast<std::size_t>(lane)];
      const int ext = satClamp(diff, kMsgBits);
      const int cond = applyScale(applyWidthMode(ext, in.path_sel & 3u),
                                  (in.path_sel >> 2) & 3u);
      lane_par ^= cond < 0 ? 1u : 0u;
      if (lane == static_cast<int>(in.edge_idx & 3u)) {
        probe(8 + lane);
        selected = cond;
      }
    }
  }
  if (out_en) {
    probe(12);
    int v = selected;
    if (sgn_force) {
      probe(13);
      v = satClamp(-v, kMsgBits);
    }
    next.out_msg = v;
    next.out_valid = valid_in ? 1u : 0u;
    if (valid_in && !start) {  // start has priority on the parity register
      probe(14);
      next.parity = st_.parity ^ (st_.acc < 0 ? 1u : 0u);
    }
  } else {
    probe(15);
    next.out_valid = 0;
  }

  // Echo registers follow the pipeline while either phase is active.
  if (acc_en || out_en) {
    probe(16);
    next.edge_echo = in.edge_idx & 0x3Fu;
    next.vnode_echo = in.vnode_id & 0x3FFu;
  }

  // Sticky flags: {sat, msg_zero, last_edge, acc_sign, lane_par}.
  if (!start) {
    unsigned f = st_.flags;
    if (sat_event) f |= 1u;
    if (acc_en && scaled == 0) {
      probe(17);
      f |= 2u;
    }
    if ((acc_en || out_en) && in.degree != 0 &&
        (in.edge_idx & 0x3Fu) == ((in.degree - 1u) & 0x3Fu)) {
      probe(18);
      f |= 4u;
    }
    f = (f & ~8u) | (st_.acc < 0 ? 8u : 0u);
    f = (f & ~16u) | (lane_par != 0 ? 16u : 0u);
    next.flags = f & 0x1Fu;
  }
  probe(19);

  st_ = next;
}

std::uint64_t packBitNodeIn(const BitNodeIn& in) {
  std::uint64_t w = 0;
  int at = 0;
  auto put = [&w, &at](std::uint64_t v, int bits) {
    w |= (v & ((std::uint64_t{1} << bits) - 1u)) << at;
    at += bits;
  };
  put(static_cast<std::uint64_t>(toBits(in.cn_msg, 8)), 8);
  put(static_cast<std::uint64_t>(toBits(in.ch_llr, 8)), 8);
  put(in.edge_idx, 6);
  put(in.degree, 6);
  put(in.path_sel, 4);
  put(in.vnode_id, 10);
  put(in.ctrl, 12);
  return w;
}

BitNodeIn unpackBitNodeIn(std::uint64_t bits) {
  BitNodeIn in;
  int at = 0;
  auto take = [&bits, &at](int n) {
    const std::uint64_t v = (bits >> at) & ((std::uint64_t{1} << n) - 1u);
    at += n;
    return static_cast<unsigned>(v);
  };
  in.cn_msg = sext(take(8), 8);
  in.ch_llr = sext(take(8), 8);
  in.edge_idx = take(6);
  in.degree = take(6);
  in.path_sel = take(4);
  in.vnode_id = take(10);
  in.ctrl = take(12);
  return in;
}

std::uint64_t packBitNodeOut(const BitNodeOut& out) {
  std::uint64_t w = 0;
  int at = 0;
  auto put = [&w, &at](std::uint64_t v, int bits) {
    w |= (v & ((std::uint64_t{1} << bits) - 1u)) << at;
    at += bits;
  };
  put(static_cast<std::uint64_t>(toBits(out.bn_msg, 8)), 8);
  put(out.hard_bit, 1);
  put(static_cast<std::uint64_t>(toBits(out.soft_out, 12)), 12);
  put(out.out_edge, 6);
  put(out.out_vnode, 10);
  put(out.state_dbg, 10);
  put(out.flags, 5);
  put(out.valid_out, 1);
  put(out.ready, 1);
  put(out.parity_out, 1);
  return w;
}

}  // namespace corebist::ldpc
