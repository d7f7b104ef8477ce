#include "encoding/rans.hpp"

#include <algorithm>
#include <numeric>

#include "encoding/bit_ops.hpp"
#include "util/check.hpp"

namespace gcm {
namespace {

constexpr u32 kScaleBits = 14;
constexpr u32 kScale = 1u << kScaleBits;
constexpr u64 kRansL = 1ULL << 31;  // lower bound of the normalized state

// Slot layout: [0, 2^fold_bits) are literal slots; slot 2^fold_bits + k is
// the escape for symbols with (fold_bits + k) significant low bits beyond
// the leading one, i.e. floor(log2(v)) == fold_bits + k.
u32 SlotCount(u32 fold_bits) { return (1u << fold_bits) + (32 - fold_bits); }

struct FoldedSymbol {
  u32 slot;
  u32 raw_bits;   // width of the raw payload
  u32 payload;    // low-order bits of the symbol
};

FoldedSymbol Fold(u32 symbol, u32 fold_bits) {
  if (symbol < (1u << fold_bits)) return {symbol, 0, 0};
  u32 b = FloorLog2(symbol);
  return {(1u << fold_bits) + (b - fold_bits), b,
          symbol & static_cast<u32>(LowMask(b))};
}

u32 Unfold(u32 slot, u32 fold_bits, u32 payload) {
  if (slot < (1u << fold_bits)) return slot;
  u32 b = fold_bits + (slot - (1u << fold_bits));
  return (1u << b) | payload;
}

/// Normalizes raw counts so they sum to kScale, keeping every nonzero count
/// at >= 1. Standard largest-remainder style with a correction pass.
std::vector<u16> NormalizeFreqs(const std::vector<u64>& counts, u64 total) {
  std::vector<u16> freqs(counts.size(), 0);
  GCM_CHECK_MSG(total > 0, "cannot normalize an empty frequency table");
  u64 assigned = 0;
  std::size_t max_slot = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    u64 scaled = counts[s] * kScale / total;
    if (scaled == 0) scaled = 1;
    GCM_DCHECK(scaled <= 0xffff);
    freqs[s] = static_cast<u16>(scaled);
    assigned += scaled;
    if (counts[s] > counts[max_slot] || freqs[max_slot] == 0) max_slot = s;
  }
  // Push the rounding error onto the most frequent slot; if that would make
  // it non-positive, lower it to 1 and steal the rest from other slots.
  i64 error = static_cast<i64>(kScale) - static_cast<i64>(assigned);
  if (static_cast<i64>(freqs[max_slot]) + error >= 1) {
    freqs[max_slot] = static_cast<u16>(freqs[max_slot] + error);
  } else {
    i64 deficit = -error - (static_cast<i64>(freqs[max_slot]) - 1);
    freqs[max_slot] = 1;
    for (std::size_t s = 0; s < freqs.size() && deficit > 0; ++s) {
      if (s == max_slot || freqs[s] <= 1) continue;
      i64 take = std::min<i64>(deficit, freqs[s] - 1);
      freqs[s] = static_cast<u16>(freqs[s] - take);
      deficit -= take;
    }
    GCM_CHECK_MSG(deficit == 0, "frequency normalization failed");
  }
  return freqs;
}

class RansEncoderState {
 public:
  void PushSlot(u32 freq, u32 cum) {
    GCM_DCHECK_MSG(freq > 0, "cannot encode a zero-frequency slot");
    u64 x_max = ((kRansL >> kScaleBits) << 32) * freq;
    while (state_ >= x_max) EmitChunk();
    state_ = (state_ / freq) * kScale + cum + state_ % freq;
  }

  void PushRawBits(u32 payload, u32 width) {
    if (width == 0) return;
    GCM_DCHECK_MSG(width <= 31, "raw-bit width " << width << " exceeds 31");
    u64 x_max = (kRansL >> width) << 32;
    while (state_ >= x_max) EmitChunk();
    state_ = (state_ << width) | payload;
  }

  std::vector<u32> Finish() {
    // Flush the 64-bit state as two chunks, then reverse so that decoding
    // reads the buffer strictly forward.
    chunks_.push_back(static_cast<u32>(state_));
    chunks_.push_back(static_cast<u32>(state_ >> 32));
    std::reverse(chunks_.begin(), chunks_.end());
    return std::move(chunks_);
  }

 private:
  void EmitChunk() {
    chunks_.push_back(static_cast<u32>(state_));
    state_ >>= 32;
  }

  u64 state_ = kRansL;
  std::vector<u32> chunks_;
};

}  // namespace

u64 RansStream::SizeInBytes() const {
  // Exact serialized footprint: model header plus 4 bytes per payload chunk.
  ByteWriter writer;
  Serialize(&writer);
  return writer.size();
}

void RansStream::Serialize(ByteWriter* writer) const {
  writer->Put<u8>(static_cast<u8>(fold_bits));
  writer->PutVarint(symbol_count);
  // count_if returns a signed ptrdiff_t; the count is non-negative.
  u64 nonzero = static_cast<u64>(std::count_if(
      freqs.begin(), freqs.end(), [](u16 f) { return f != 0; }));
  writer->PutVarint(freqs.size());
  writer->PutVarint(nonzero);
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    writer->PutVarint(s);
    writer->PutVarint(freqs[s]);
  }
  writer->PutArray(chunks);
}

RansStream RansStream::Deserialize(ByteReader* reader) {
  RansStream stream;
  stream.fold_bits = reader->Get<u8>();
  GCM_CHECK_MSG(stream.fold_bits >= 1 && stream.fold_bits <= 13,
                "corrupt rANS header: fold_bits=" << stream.fold_bits);
  stream.symbol_count = reader->GetVarint();
  u64 slots = reader->GetVarint();
  GCM_CHECK_MSG(slots == SlotCount(stream.fold_bits),
                "corrupt rANS header: slot count mismatch");
  u64 nonzero = reader->GetVarint();
  stream.freqs.assign(slots, 0);
  u64 sum = 0;
  for (u64 i = 0; i < nonzero; ++i) {
    u64 slot = reader->GetVarint();
    u64 freq = reader->GetVarint();
    GCM_CHECK_MSG(slot < slots, "corrupt rANS header: slot out of range");
    GCM_CHECK_MSG(freq >= 1 && freq <= kScale, "corrupt rANS frequency");
    stream.freqs[slot] = static_cast<u16>(freq);
    sum += freq;
  }
  GCM_CHECK_MSG(stream.symbol_count == 0 || sum == kScale,
                "corrupt rANS header: frequencies sum to " << sum);
  stream.chunks = reader->GetArray<u32>();
  return stream;
}

RansStream RansEncode(const std::vector<u32>& symbols, u32 fold_bits) {
  GCM_CHECK_MSG(fold_bits >= 1 && fold_bits <= 13,
                "fold_bits must be in [1,13], got " << fold_bits);
  RansStream stream;
  stream.fold_bits = fold_bits;
  stream.symbol_count = symbols.size();
  u32 slots = SlotCount(fold_bits);
  stream.freqs.assign(slots, 0);
  if (symbols.empty()) return stream;

  std::vector<u64> counts(slots, 0);
  for (u32 v : symbols) counts[Fold(v, fold_bits).slot]++;
  stream.freqs = NormalizeFreqs(counts, symbols.size());

  std::vector<u32> cum(slots + 1, 0);
  for (u32 s = 0; s < slots; ++s) cum[s + 1] = cum[s] + stream.freqs[s];

  RansEncoderState state;
  // rANS encodes in reverse; per symbol, raw bits are pushed before the slot
  // so the decoder pops slot first, then raw bits.
  for (std::size_t i = symbols.size(); i-- > 0;) {
    FoldedSymbol f = Fold(symbols[i], fold_bits);
    state.PushRawBits(f.payload, f.raw_bits);
    state.PushSlot(stream.freqs[f.slot], cum[f.slot]);
  }
  stream.chunks = state.Finish();
  return stream;
}

RansDecoder::RansDecoder(const RansStream& stream) : stream_(stream) {
  u32 slots = SlotCount(stream.fold_bits);
  GCM_CHECK_MSG(stream.freqs.size() == slots, "rANS model size mismatch");
  cum_.assign(slots + 1, 0);
  for (u32 s = 0; s < slots; ++s) cum_[s + 1] = cum_[s] + stream.freqs[s];
  if (stream.symbol_count > 0) {
    GCM_CHECK_MSG(cum_[slots] == kScale, "rANS model does not sum to 2^14");
    slot_of_pos_.resize(kScale);
    for (u32 s = 0; s < slots; ++s) {
      for (u32 p = cum_[s]; p < cum_[s + 1]; ++p) {
        slot_of_pos_[p] = static_cast<u16>(s);
      }
    }
  }
  Reset();
}

void RansDecoder::Reset() {
  chunk_pos_ = 0;
  remaining_ = stream_.symbol_count;
  if (remaining_ == 0) return;
  GCM_CHECK_MSG(stream_.chunks.size() >= 2, "rANS payload too short");
  state_ = (static_cast<u64>(ReadChunk()) << 32) | ReadChunk();
}

u32 RansDecoder::ReadChunk() {
  GCM_CHECK_MSG(chunk_pos_ < stream_.chunks.size(),
                "rANS payload underrun (corrupt stream)");
  return stream_.chunks[chunk_pos_++];
}

u32 RansDecoder::Next() {
  GCM_CHECK_MSG(remaining_ > 0, "rANS stream exhausted");
  --remaining_;
  u32 pos = static_cast<u32>(state_ & (kScale - 1));
  // The mask bounds pos to [0, kScale); slot_of_pos_ has exactly kScale
  // entries whenever symbols remain (built in the constructor), and every
  // slot id it holds indexes the freqs/cum tables.
  GCM_DCHECK_BOUNDS(pos, slot_of_pos_.size());
  u32 slot = slot_of_pos_[pos];
  GCM_DCHECK_BOUNDS(slot, stream_.freqs.size());
  GCM_DCHECK_BOUNDS(slot, cum_.size());
  u32 freq = stream_.freqs[slot];
  GCM_DCHECK_MSG(freq > 0, "decoded slot " << slot << " has zero frequency");
  GCM_DCHECK_MSG(pos >= cum_[slot],
                 "rANS state position " << pos
                                        << " below the slot's cumulative base "
                                        << cum_[slot]);
  state_ = static_cast<u64>(freq) * (state_ >> kScaleBits) + pos - cum_[slot];
  // Renormalization needs at most ONE chunk, so both renorm points are a
  // branch, not a loop: before each, state >= 2^(31-kScaleBits) > 0 (the
  // decode step keeps state >= freq * (state >> 14) with state >= kRansL
  // = 2^31 beforehand; the raw-bits shift below drops at most 31 bits of
  // a state >= 2^31), and (state << 32) | chunk >= 2^32 > kRansL for any
  // state >= 1. A corrupt stream can void the precondition and decode
  // garbage -- exactly as the old loop did -- and the load-time payload
  // validation (symbol ranges, sentinel counts) rejects it downstream.
  if (state_ < kRansL && chunk_pos_ < stream_.chunks.size()) {
    state_ = (state_ << 32) | ReadChunk();
  }
  u32 fold_base = 1u << stream_.fold_bits;
  if (slot < fold_base) return slot;
  u32 width = stream_.fold_bits + (slot - fold_base);
  u32 payload = static_cast<u32>(state_ & LowMask(width));
  state_ >>= width;
  if (state_ < kRansL && chunk_pos_ < stream_.chunks.size()) {
    state_ = (state_ << 32) | ReadChunk();
  }
  return Unfold(slot, stream_.fold_bits, payload);
}

std::vector<u32> RansDecoder::DecodeAll() {
  Reset();
  std::vector<u32> out;
  out.reserve(remaining_);
  while (!AtEnd()) out.push_back(Next());
  return out;
}

}  // namespace gcm
