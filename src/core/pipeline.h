#ifndef ESSDDS_CORE_PIPELINE_H_
#define ESSDDS_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codec/chunker.h"
#include "codec/dispersal.h"
#include "codec/symbol_encoder.h"
#include "core/scheme_params.h"
#include "crypto/ecb.h"
#include "util/bitstream.h"
#include "util/bytes.h"
#include "util/result.h"

namespace essdds::core {

/// One index record as produced by the pipeline: the per-(chunking-family,
/// dispersal-site) stream that one index site stores for one data record.
struct IndexRecordData {
  uint64_t rid = 0;
  uint32_t family = 0;  // chunking family; its symbol offset is family*stride
  uint32_t site = 0;    // dispersal site in [0, k)
  /// Stream values: encrypted chunk values when dispersal is off, dispersal
  /// pieces (g bits each) when on. Position c corresponds to record symbols
  /// [offset + c*P, offset + (c+1)*P).
  std::vector<uint64_t> stream;
};

/// Packs (rid, family, site) into the LH* key: the sub-identifier occupies
/// the least-significant bits so the index records of one data record land
/// in different buckets once the file has split enough (paper §5).
uint64_t MakeIndexKey(uint64_t rid, uint32_t family, uint32_t site,
                      const SchemeParams& params);
/// Inverse of MakeIndexKey.
void ParseIndexKey(uint64_t key, const SchemeParams& params, uint64_t* rid,
                   uint32_t* family, uint32_t* site);

/// One chunked-and-encrypted query series (one alignment of the search
/// string, §2.3).
struct QuerySeries {
  uint32_t alignment = 0;  // symbol offset into the query
  /// Encrypted chunk values (always present; used when dispersal is off).
  std::vector<uint64_t> chunks;
  /// pieces[d] = the stream dispersal site d must match (present iff k>1).
  std::vector<std::vector<uint64_t>> pieces;
};

/// The full query object shipped to every index site.
struct SearchQuery {
  uint32_t symbols_per_chunk = 0;
  uint32_t chunking_stride = 0;
  uint32_t dispersal_sites = 1;
  uint64_t query_symbols = 0;
  /// Shared series (single-codebook deployments).
  std::vector<QuerySeries> series;
  /// Per-family series (per_family_keys deployments): family_series[f] is
  /// the series set encrypted under family f's codebook.
  bool per_family = false;
  std::vector<std::vector<QuerySeries>> family_series;

  /// The series set an index site of chunking family `family` must match.
  const std::vector<QuerySeries>& SeriesFor(uint32_t family) const {
    if (!per_family) return series;
    ESSDDS_DCHECK(family < family_series.size());
    return family_series[family];
  }

  /// Wire encoding (this is what gets charged to the scan message).
  Bytes Serialize() const;
  static Result<SearchQuery> Deserialize(ByteSpan data);

  /// Dispersal-site count with the undispersed encoding normalized to 1.
  /// Wire queries can never carry 0 (Deserialize rejects it), but a
  /// hand-built query can; every consumer that branches between `chunks`
  /// and `pieces` must use this clamp — branching on `dispersal_sites == 1`
  /// directly would send the 0 case into an empty `pieces`.
  uint32_t effective_sites() const {
    return dispersal_sites > 1 ? dispersal_sites : 1;
  }

  /// The pattern stream site (family f, dispersal d) should match for a
  /// given series.
  const std::vector<uint64_t>& PatternFor(const QuerySeries& s,
                                          uint32_t site) const {
    return effective_sites() == 1 ? s.chunks : s.pieces[site];
  }

  /// Chunk count of a series (uniform across dispersal sites).
  size_t SeriesLength(const QuerySeries& s) const {
    return effective_sites() == 1 ? s.chunks.size() : s.pieces[0].size();
  }
};

/// Builds index records and queries: Stage 2 (lossy symbol encoding), Stage
/// 1 (chunked ECB under a key-chain-derived key), Stage 3 (matrix
/// dispersal). One pipeline instance per encrypted store; deterministic in
/// (params, master key, training corpus).
class IndexPipeline {
 public:
  /// `training_corpus` feeds the Stage-2 frequency encoder (ignored when
  /// Stage 2 is disabled). The master key derives the ECB key and the
  /// dispersal matrix seed.
  static Result<IndexPipeline> Create(
      const SchemeParams& params, ByteSpan master_key,
      std::span<const std::string> training_corpus);

  /// All index records of one data record: num_chunkings * dispersal_sites
  /// entries (families with no full chunk yield empty streams, still stored
  /// so deletes are uniform).
  std::vector<IndexRecordData> BuildIndexRecords(
      uint64_t rid, std::string_view content) const;

  /// Chunks, encodes, encrypts and disperses a search substring. Fails with
  /// InvalidArgument when the substring is shorter than
  /// params().min_query_symbols().
  Result<SearchQuery> BuildQuery(std::string_view substring) const;

  /// Serializes a stream for storage as an LH* record value: a u32 value
  /// count, then the values packed MSB-first at stream_value_bits() each.
  Bytes SerializeStream(const std::vector<uint64_t>& stream) const;
  Result<std::vector<uint64_t>> DeserializeStream(ByteSpan data) const;
  /// Allocation-reusing variant: clears `*out` and decodes into it, keeping
  /// its capacity across records.
  Status DeserializeStreamInto(ByteSpan data, std::vector<uint64_t>* out) const;

  /// A stored stream read in place: the values stay packed in `data`. The
  /// one check of a stored stream, shared by the decoder and the matcher:
  /// Corruption when the count header is short or the count needs more
  /// bits than follow it; trailing bytes are ignored. The count is bounded
  /// by the payload before anything reads or allocates by it.
  Result<PackedValues> StreamView(ByteSpan data) const {
    if (data.size() < 4) return Status::Corruption("stream header truncated");
    const uint64_t count = LoadBits(data, 0, 32);
    const ByteSpan values = data.subspan(4);
    // count < 2^32 and bits <= 64, so the product cannot overflow.
    if (values.size() * 8 < count * static_cast<uint64_t>(value_bits_)) {
      return Status::Corruption("stream payload truncated");
    }
    return PackedValues(values, static_cast<size_t>(count), value_bits_);
  }

  const SchemeParams& params() const { return params_; }
  const codec::SymbolEncoder& encoder() const { return *encoder_; }

  /// Bits per stored stream value (dispersal piece width, or chunk width).
  int stream_value_bits() const { return value_bits_; }

 private:
  IndexPipeline(SchemeParams params,
                std::unique_ptr<codec::SymbolEncoder> encoder,
                std::unique_ptr<codec::Chunker> chunker,
                std::vector<std::unique_ptr<crypto::EcbCodebook>> codebooks,
                std::unique_ptr<codec::Disperser> disperser);

  /// The ECB codebook used by chunking family `family` (shared instance
  /// unless params.per_family_keys).
  const crypto::EcbCodebook& CodebookFor(int family) const {
    return params_.per_family_keys ? *codebooks_[static_cast<size_t>(family)]
                                   : *codebooks_[0];
  }

  /// Builds one encrypted (and dispersed) series set under a codebook.
  std::vector<QuerySeries> EncryptSeries(
      const std::vector<std::pair<uint32_t, std::vector<uint64_t>>>&
          plain_series,
      const crypto::EcbCodebook& codebook) const;

  SchemeParams params_;
  std::unique_ptr<codec::SymbolEncoder> encoder_;
  std::unique_ptr<codec::Chunker> chunker_;
  /// One codebook (shared) or one per family (per_family_keys).
  std::vector<std::unique_ptr<crypto::EcbCodebook>> codebooks_;
  std::unique_ptr<codec::Disperser> disperser_;  // null when k == 1
  int value_bits_;  // stream_value_bits()
};

}  // namespace essdds::core

#endif  // ESSDDS_CORE_PIPELINE_H_
