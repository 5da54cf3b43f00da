#include "bist/misr.hpp"

#include "bist/lfsr.hpp"

namespace corebist {

std::uint64_t misrPolyMask(int width) {
  // Reuse the ALFSR primitive-polynomial table: taps t correspond to
  // exponents t+1; coefficient mask has bit 0 plus bit (t+1) for each tap
  // except the top one (t = width-1, which is the x^w term itself).
  std::uint64_t mask = 1;  // x^0
  for (const int t : primitiveTaps(width)) {
    const int e = t + 1;
    if (e < width) mask |= std::uint64_t{1} << e;
  }
  return mask;
}

Misr::Misr(int width)
    : width_(width),
      poly_(misrPolyMask(width)),
      mask_((std::uint64_t{1} << width) - 1) {}

void Misr::step(std::uint64_t input) {
  const bool msb = ((state_ >> (width_ - 1)) & 1u) != 0;
  state_ = ((state_ << 1) & mask_) ^ (msb ? poly_ : 0) ^ (input & mask_);
}

void Misr::stepWide(std::uint64_t response, int response_width) {
  std::uint64_t folded = 0;
  for (int i = 0; i < response_width; ++i) {
    folded ^= ((response >> i) & 1u) << (i % width_);
  }
  step(folded);
}

std::vector<std::vector<NetId>> foldFeeds(const std::vector<NetId>& outputs,
                                          int width) {
  std::vector<std::vector<NetId>> feeds(static_cast<std::size_t>(width));
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    feeds[i % static_cast<std::size_t>(width)].push_back(outputs[i]);
  }
  return feeds;
}

MisrSpec makeMisrSpec(const std::vector<NetId>& outputs, int width) {
  MisrSpec spec;
  spec.width = width;
  spec.poly = misrPolyMask(width);
  spec.feeds = foldFeeds(outputs, width);
  return spec;
}

MisrHw buildMisrHw(Builder& b, const std::vector<NetId>& inputs, int width,
                   NetId en, NetId clear) {
  const Bus q = b.state("misr", width);
  const auto feeds = foldFeeds(inputs, width);
  const std::uint64_t poly = misrPolyMask(width);
  const NetId msb = q[static_cast<std::size_t>(width - 1)];
  Bus next;
  next.reserve(static_cast<std::size_t>(width));
  for (int j = 0; j < width; ++j) {
    NetId v = j > 0 ? q[static_cast<std::size_t>(j - 1)] : b.lo();
    if (((poly >> j) & 1u) != 0) v = b.xor2(v, msb);
    for (const NetId in : feeds[static_cast<std::size_t>(j)]) {
      v = b.xor2(v, in);
    }
    next.push_back(v);
  }
  b.connectEnClr(q, next, en, clear);
  return MisrHw{q};
}

}  // namespace corebist
