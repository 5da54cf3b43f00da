#include "ldpc/arch/check_node.hpp"

namespace corebist::ldpc {

namespace {
int sext(unsigned v, int bits) {
  const unsigned m = 1u << (bits - 1);
  return static_cast<int>(v ^ m) - static_cast<int>(m);
}
unsigned toBits(int v, int bits) {
  return static_cast<unsigned>(v) & ((1u << bits) - 1u);
}
}  // namespace

CnMinTriple cnMerge2(const CnMinTriple& x, const CnMinTriple& y) {
  CnMinTriple r;
  if (y.m1 < x.m1) {
    r.m1 = y.m1;
    r.idx = y.idx;
    r.m2 = x.m1 < y.m2 ? x.m1 : y.m2;
  } else {
    r.m1 = x.m1;
    r.idx = x.idx;
    r.m2 = y.m1 < x.m2 ? y.m1 : x.m2;
  }
  return r;
}

CnMinTriple cnTournament(const CnMinTriple* leaves, int count) {
  std::array<CnMinTriple, kCnWindow> layer{};
  for (int i = 0; i < count; ++i) layer[static_cast<std::size_t>(i)] = leaves[i];
  int n = count;
  while (n > 1) {
    int o = 0;
    for (int i = 0; i + 1 < n; i += 2) {
      layer[static_cast<std::size_t>(o++)] =
          cnMerge2(layer[static_cast<std::size_t>(i)],
                   layer[static_cast<std::size_t>(i + 1)]);
    }
    if (n % 2 != 0) layer[static_cast<std::size_t>(o++)] = layer[static_cast<std::size_t>(n - 1)];
    n = o;
  }
  return layer[0];
}

unsigned CheckNodeModel::widthClampMag(unsigned mag, unsigned sel) {
  static constexpr unsigned kLimit[4] = {127u, 31u, 7u, 3u};
  const unsigned lim = kLimit[sel & 3u];
  return mag > lim ? lim : mag;
}

unsigned CheckNodeModel::scaleMag(unsigned mag, unsigned sel) {
  switch (sel & 3u) {
    case 0:
      return mag;
    case 1:
      return mag - (mag >> 2);
    case 2:
      return mag >> 1;
    default:
      return 0;
  }
}

void CheckNodeModel::reset() { st_ = State{}; }

CheckNodeOut CheckNodeModel::eval(const CheckNodeIn& in) const {
  CheckNodeOut out;
  out.cn_msg = st_.out_msg;
  out.out_edge = st_.edge_echo;
  out.out_cnode = st_.cnode_echo;
  out.parity_ok = st_.sign_prod == 0 ? 1u : 0u;
  // Observation mode (dbg high): the debug bytes expose an XOR fold of each
  // lane's window pipeline instead of the min registers. This is the DfT
  // hook that makes the magnitude buffer observable under pseudo-random
  // patterns (the min tournaments alone only ever expose minima).
  if ((in.ctrl & CnCtrl::kDbg) != 0) {
    unsigned fold0 = 0;
    unsigned fold1 = 0;
    for (int i = 0; i < kCnWindow; ++i) {
      fold0 ^= st_.win_val[0][static_cast<std::size_t>(i)];
      fold1 ^= st_.win_val[1][static_cast<std::size_t>(i)];
    }
    out.min1_dbg = fold0 & 0xFFu;
    out.min2_dbg = fold1 & 0xFFu;
  } else {
    out.min1_dbg = st_.min1;
    out.min2_dbg = st_.min2;
  }
  out.sign_dbg = st_.sign_prod;
  out.argmin_dbg = st_.argmin;
  out.flags = st_.flags;
  out.valid_out = st_.out_valid;
  out.ready =
      (in.ctrl & (CnCtrl::kLoad | CnCtrl::kCompute | CnCtrl::kOutEn)) == 0
          ? 1u
          : 0u;
  return out;
}

void CheckNodeModel::tick(const CheckNodeIn& in) {
  const bool start = (in.ctrl & CnCtrl::kStart) != 0;
  const bool load = (in.ctrl & CnCtrl::kLoad) != 0;
  const bool compute = (in.ctrl & CnCtrl::kCompute) != 0;
  const bool out_en = (in.ctrl & CnCtrl::kOutEn) != 0;
  const bool flush = (in.ctrl & CnCtrl::kFlush) != 0;
  const bool use_offset = (in.ctrl & CnCtrl::kUseOffset) != 0;
  const bool use_norm = (in.ctrl & CnCtrl::kUseNorm) != 0;
  const bool clr_parity = (in.ctrl & CnCtrl::kClrParity) != 0;
  const bool valid_in = (in.ctrl & CnCtrl::kValidIn) != 0;
  const bool win_hi = (in.ctrl & CnCtrl::kWinHi) != 0;

  State next = st_;

  // Magnitude/sign split of the incoming message (|-128| clamps to 127).
  const unsigned sign_in = in.bn_msg < 0 ? 1u : 0u;
  const unsigned mag_raw =
      static_cast<unsigned>(in.bn_msg < 0 ? -in.bn_msg : in.bn_msg);
  const unsigned mag_sat = mag_raw > 127u ? 127u : mag_raw;
  const unsigned mag_w = widthClampMag(mag_sat, in.path_sel & 3u);
  probe(0);

  if (start) {
    probe(1);
    next.min1 = 0xFF;
    next.min2 = 0xFF;
    next.argmin = 0;
    next.sign_prod = 0;
    next.offset_reg = in.offset & 0x7Fu;
    next.flags = 0;
  }
  if (clr_parity) {
    probe(2);
    next.sign_prod = 0;
  }

  if (flush) {
    probe(3);
    // Invalidate to maximum magnitude so stale entries never win the min
    // tournaments (the decoder protocol flushes before loading each row).
    next.mag_buf.fill(127);
    next.sign_buf.fill(0);
  } else if (load && !start) {
    probe(4);
    next.mag_buf[in.edge_idx & 63u] = mag_w;
    next.sign_buf[in.edge_idx & 63u] = sign_in;
    next.sign_prod = st_.sign_prod ^ sign_in;
    if (mag_w != mag_sat) {
      probe(5);
      next.flags |= 8u;  // sat_mag
    }
  }

  // Free-running window pipeline: every cycle the crossbars capture the
  // window pointed to by the current edge index (lane 1 is offset by 16 or
  // 48 under win_hi). The tournament below therefore sees the window of the
  // PREVIOUS cycle, exactly like the registered hardware.
  for (int l = 0; l < kCnLanes; ++l) {
    unsigned base = in.edge_idx & 63u;
    if (l == 1) base = (base + (win_hi ? 48u : 16u)) & 63u;
    next.win_base[static_cast<std::size_t>(l)] = base;
    for (int i = 0; i < kCnWindow; ++i) {
      next.win_val[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] =
          st_.mag_buf[(base + static_cast<unsigned>(i)) & 63u];
    }
  }

  unsigned tie = 0;
  if (compute && !start) {
    probe(6);
    std::array<CnMinTriple, kCnLanes> lane{};
    for (int l = 0; l < kCnLanes; ++l) {
      std::array<CnMinTriple, kCnWindow> leaves{};
      for (int i = 0; i < kCnWindow; ++i) {
        leaves[static_cast<std::size_t>(i)] = CnMinTriple{
            st_.win_val[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)],
            0xFFu,
            (st_.win_base[static_cast<std::size_t>(l)] +
             static_cast<unsigned>(i)) &
                63u};
      }
      lane[static_cast<std::size_t>(l)] =
          cnTournament(leaves.data(), kCnWindow);
    }
    if (lane[0].m1 == lane[1].m1) {
      probe(7);
      tie = 1;
    }
    CnMinTriple merged{st_.min1, st_.min2, st_.argmin};
    merged = cnMerge2(merged, lane[0]);
    merged = cnMerge2(merged, lane[1]);
    next.min1 = merged.m1;
    next.min2 = merged.m2;
    next.argmin = merged.idx;
  }

  unsigned offset_uflow = 0;
  if (out_en) {
    probe(8);
    const unsigned e = in.edge_idx & 63u;
    unsigned mag = (e == st_.argmin) ? st_.min2 : st_.min1;
    if (e == st_.argmin) probe(9);
    if (use_offset) {
      probe(10);
      if (mag < st_.offset_reg) {
        probe(11);
        offset_uflow = 1;
        mag = 0;
      } else {
        mag -= st_.offset_reg;
      }
    }
    if (use_norm) {
      probe(12);
      mag = mag - (mag >> 2);
    }
    mag = scaleMag(mag, (in.path_sel >> 2) & 3u);
    if (mag > 127u) mag = 127u;
    const unsigned sign = st_.sign_prod ^ st_.sign_buf[e];
    next.out_msg = sign != 0 ? -static_cast<int>(mag)
                             : static_cast<int>(mag);
    next.out_valid = valid_in ? 1u : 0u;
    if (sign != 0) probe(13);
  } else {
    probe(14);
    next.out_valid = 0;
  }

  if (load || compute || out_en) {
    probe(15);
    next.edge_echo = in.edge_idx & 63u;
    next.cnode_echo = in.cnode_id & 0x1FFu;
  }

  if (!start) {
    unsigned f = next.flags;
    if (tie != 0) f |= 1u;
    if ((load || out_en) && in.row_deg != 0 &&
        (in.edge_idx & 63u) == ((in.row_deg - 1u) & 63u)) {
      probe(16);
      f |= 2u;
    }
    if (offset_uflow != 0) {
      probe(17);
      f |= 4u;
    }
    next.flags = f & 0xFu;
  }
  probe(18);

  st_ = next;
}

std::uint64_t packCheckNodeIn(const CheckNodeIn& in) {
  std::uint64_t w = 0;
  int at = 0;
  auto put = [&w, &at](std::uint64_t v, int bits) {
    w |= (v & ((std::uint64_t{1} << bits) - 1u)) << at;
    at += bits;
  };
  put(static_cast<std::uint64_t>(toBits(in.bn_msg, 8)), 8);
  put(in.edge_idx, 6);
  put(in.row_deg, 6);
  put(in.path_sel, 4);
  put(in.cnode_id, 9);
  put(in.offset, 8);
  put(in.ctrl, 12);
  return w;
}

CheckNodeIn unpackCheckNodeIn(std::uint64_t bits) {
  CheckNodeIn in;
  int at = 0;
  auto take = [&bits, &at](int n) {
    const std::uint64_t v = (bits >> at) & ((std::uint64_t{1} << n) - 1u);
    at += n;
    return static_cast<unsigned>(v);
  };
  in.bn_msg = sext(take(8), 8);
  in.edge_idx = take(6);
  in.row_deg = take(6);
  in.path_sel = take(4);
  in.cnode_id = take(9);
  in.offset = take(8);
  in.ctrl = take(12);
  return in;
}

std::uint64_t packCheckNodeOut(const CheckNodeOut& out) {
  std::uint64_t w = 0;
  int at = 0;
  auto put = [&w, &at](std::uint64_t v, int bits) {
    w |= (v & ((std::uint64_t{1} << bits) - 1u)) << at;
    at += bits;
  };
  put(static_cast<std::uint64_t>(toBits(out.cn_msg, 8)), 8);
  put(out.out_edge, 6);
  put(out.out_cnode, 9);
  put(out.parity_ok, 1);
  put(out.min1_dbg, 8);
  put(out.min2_dbg, 8);
  put(out.sign_dbg, 1);
  put(out.argmin_dbg, 6);
  put(out.flags, 4);
  put(out.valid_out, 1);
  put(out.ready, 1);
  return w;
}

}  // namespace corebist::ldpc
