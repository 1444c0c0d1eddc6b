#include "core/pipeline.h"

#include <utility>

#include "crypto/key_chain.h"
#include "util/bitstream.h"
#include "util/wire.h"

namespace essdds::core {

uint64_t MakeIndexKey(uint64_t rid, uint32_t family, uint32_t site,
                      const SchemeParams& params) {
  const uint32_t subid =
      family * static_cast<uint32_t>(params.dispersal_sites) + site;
  ESSDDS_DCHECK(subid < (uint32_t{1} << params.subid_bits));
  return (rid << params.subid_bits) | subid;
}

void ParseIndexKey(uint64_t key, const SchemeParams& params, uint64_t* rid,
                   uint32_t* family, uint32_t* site) {
  const uint64_t subid_mask = (uint64_t{1} << params.subid_bits) - 1;
  const uint32_t subid = static_cast<uint32_t>(key & subid_mask);
  *rid = key >> params.subid_bits;
  *family = subid / static_cast<uint32_t>(params.dispersal_sites);
  *site = subid % static_cast<uint32_t>(params.dispersal_sites);
}

namespace {

void SerializeSeriesList(const std::vector<QuerySeries>& list,
                         uint32_t dispersal_sites, WireWriter& w) {
  w.WriteU32(static_cast<uint32_t>(list.size()));
  for (const QuerySeries& s : list) {
    w.WriteU32(s.alignment);
    w.WriteU32(static_cast<uint32_t>(s.chunks.size()));
    if (dispersal_sites == 1) {
      for (uint64_t c : s.chunks) w.WriteU64(c);
    } else {
      // Only the dispersed pieces go on the wire: sites never see the
      // undispersed chunk values.
      for (const auto& site_stream : s.pieces) {
        ESSDDS_DCHECK(site_stream.size() == s.chunks.size());
        for (uint64_t p : site_stream) w.WriteU64(p);
      }
    }
  }
}

/// Wire-level plausibility bound on dispersal_sites: k divides the chunk bit
/// width, which SchemeParams caps at 64 bits. Rejecting larger values keeps
/// the per-series pieces.resize(k) below from being attacker-sized.
constexpr uint32_t kMaxWireDispersalSites = 64;

}  // namespace

Bytes SearchQuery::Serialize() const {
  WireWriter w;
  w.WriteU32(symbols_per_chunk);
  w.WriteU32(chunking_stride);
  w.WriteU32(dispersal_sites);
  w.WriteU64(query_symbols);
  w.WriteBool(per_family);
  if (per_family) {
    w.WriteU32(static_cast<uint32_t>(family_series.size()));
    for (const auto& list : family_series) {
      SerializeSeriesList(list, dispersal_sites, w);
    }
  } else {
    SerializeSeriesList(series, dispersal_sites, w);
  }
  return w.TakeBuffer();
}

Result<SearchQuery> SearchQuery::Deserialize(ByteSpan data) {
  WireReader r(data);
  SearchQuery q;
  ESSDDS_ASSIGN_OR_RETURN(q.symbols_per_chunk, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(q.chunking_stride, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(q.dispersal_sites, r.ReadU32());
  ESSDDS_ASSIGN_OR_RETURN(q.query_symbols, r.ReadU64());
  ESSDDS_ASSIGN_OR_RETURN(q.per_family, r.ReadBool());
  if (q.dispersal_sites == 0 || q.dispersal_sites > kMaxWireDispersalSites) {
    return Status::Corruption("implausible query header");
  }

  auto read_series_list =
      [&](std::vector<QuerySeries>& list) -> Status {
    // A series needs >= 8 bytes (alignment + chunk count).
    ESSDDS_ASSIGN_OR_RETURN(const uint32_t num_series, r.ReadCount(8));
    if (num_series > 1024) {
      return Status::Corruption("implausible series count");
    }
    list.reserve(num_series);
    for (uint32_t i = 0; i < num_series; ++i) {
      QuerySeries s;
      ESSDDS_ASSIGN_OR_RETURN(s.alignment, r.ReadU32());
      const size_t streams = q.dispersal_sites > 1 ? q.dispersal_sites : 1;
      // Each claimed chunk occupies 8 bytes in each of `streams` streams.
      ESSDDS_ASSIGN_OR_RETURN(const uint32_t num_chunks,
                              r.ReadCount(8 * streams));
      if (q.dispersal_sites == 1) {
        s.chunks.reserve(num_chunks);
        for (uint32_t c = 0; c < num_chunks; ++c) {
          ESSDDS_ASSIGN_OR_RETURN(const uint64_t v, r.ReadU64());
          s.chunks.push_back(v);
        }
      } else {
        s.pieces.resize(q.dispersal_sites);
        for (uint32_t d = 0; d < q.dispersal_sites; ++d) {
          s.pieces[d].reserve(num_chunks);
          for (uint32_t c = 0; c < num_chunks; ++c) {
            ESSDDS_ASSIGN_OR_RETURN(const uint64_t v, r.ReadU64());
            s.pieces[d].push_back(v);
          }
        }
        s.chunks.clear();
      }
      list.push_back(std::move(s));
    }
    return Status::OK();
  };

  if (q.per_family) {
    // A family's series list needs at least its own 4-byte series count.
    ESSDDS_ASSIGN_OR_RETURN(const uint32_t families, r.ReadCount(4));
    if (families == 0 || families > 256) {
      return Status::Corruption("implausible family count");
    }
    q.family_series.resize(families);
    for (uint32_t f = 0; f < families; ++f) {
      ESSDDS_RETURN_IF_ERROR(read_series_list(q.family_series[f]));
    }
  } else {
    ESSDDS_RETURN_IF_ERROR(read_series_list(q.series));
  }
  ESSDDS_RETURN_IF_ERROR(r.ExpectEnd());
  return q;
}

IndexPipeline::IndexPipeline(
    SchemeParams params, std::unique_ptr<codec::SymbolEncoder> encoder,
    std::unique_ptr<codec::Chunker> chunker,
    std::vector<std::unique_ptr<crypto::EcbCodebook>> codebooks,
    std::unique_ptr<codec::Disperser> disperser)
    : params_(params),
      encoder_(std::move(encoder)),
      chunker_(std::move(chunker)),
      codebooks_(std::move(codebooks)),
      disperser_(std::move(disperser)),
      value_bits_(params_.dispersal_sites > 1
                      ? params_.chunk_bits() / params_.dispersal_sites
                      : params_.chunk_bits()) {}

Result<IndexPipeline> IndexPipeline::Create(
    const SchemeParams& params, ByteSpan master_key,
    std::span<const std::string> training_corpus) {
  ESSDDS_RETURN_IF_ERROR(params.Validate());
  if (master_key.empty()) {
    return Status::InvalidArgument("empty master key");
  }

  std::unique_ptr<codec::SymbolEncoder> encoder;
  if (params.stage2_enabled()) {
    if (training_corpus.empty()) {
      return Status::InvalidArgument(
          "Stage 2 enabled but no training corpus provided");
    }
    ESSDDS_ASSIGN_OR_RETURN(
        codec::FrequencyEncoder trained,
        codec::FrequencyEncoder::Train(
            training_corpus, {.unit_symbols = params.unit_symbols,
                              .num_codes = params.num_codes}));
    encoder =
        std::make_unique<codec::FrequencyEncoder>(std::move(trained));
  } else {
    encoder = std::make_unique<codec::IdentityEncoder>();
  }

  ESSDDS_ASSIGN_OR_RETURN(
      codec::Chunker chunker,
      codec::Chunker::Create(encoder.get(), params.codes_per_chunk));

  crypto::KeyChain key_chain(Bytes(master_key.begin(), master_key.end()));
  std::vector<std::unique_ptr<crypto::EcbCodebook>> codebooks;
  const int num_codebooks =
      params.per_family_keys ? params.num_chunkings() : 1;
  for (int f = 0; f < num_codebooks; ++f) {
    ESSDDS_ASSIGN_OR_RETURN(
        crypto::EcbCodebook codebook,
        crypto::EcbCodebook::Create(
            key_chain.ChunkKey(static_cast<uint32_t>(f)), params.chunk_bits(),
            /*tweak=*/static_cast<uint64_t>(f)));
    codebooks.push_back(
        std::make_unique<crypto::EcbCodebook>(std::move(codebook)));
  }

  std::unique_ptr<codec::Disperser> disperser;
  if (params.dispersal_sites > 1) {
    ESSDDS_ASSIGN_OR_RETURN(
        codec::Disperser d,
        codec::Disperser::Create(params.chunk_bits(), params.dispersal_sites,
                                 key_chain.DispersalMatrixSeed()));
    disperser = std::make_unique<codec::Disperser>(std::move(d));
  }

  return IndexPipeline(params, std::move(encoder),
                       std::make_unique<codec::Chunker>(std::move(chunker)),
                       std::move(codebooks), std::move(disperser));
}

std::vector<IndexRecordData> IndexPipeline::BuildIndexRecords(
    uint64_t rid, std::string_view content) const {
  std::vector<IndexRecordData> out;
  const int k = params_.dispersal_sites;
  out.reserve(static_cast<size_t>(params_.index_records_per_record()));
  for (int f = 0; f < params_.num_chunkings(); ++f) {
    const size_t offset = static_cast<size_t>(f * params_.chunking_stride);
    std::vector<uint64_t> chunks = chunker_->BuildChunks(content, offset);
    const crypto::EcbCodebook& codebook = CodebookFor(f);
    for (uint64_t& c : chunks) c = codebook.Encrypt(c);

    if (k == 1) {
      IndexRecordData rec;
      rec.rid = rid;
      rec.family = static_cast<uint32_t>(f);
      rec.site = 0;
      rec.stream = std::move(chunks);
      out.push_back(std::move(rec));
      continue;
    }
    // Stage 3: split every chunk into k pieces.
    std::vector<IndexRecordData> sites(static_cast<size_t>(k));
    for (int d = 0; d < k; ++d) {
      sites[static_cast<size_t>(d)].rid = rid;
      sites[static_cast<size_t>(d)].family = static_cast<uint32_t>(f);
      sites[static_cast<size_t>(d)].site = static_cast<uint32_t>(d);
      sites[static_cast<size_t>(d)].stream.reserve(chunks.size());
    }
    for (uint64_t c : chunks) {
      std::vector<uint32_t> pieces = disperser_->DisperseChunk(c);
      for (int d = 0; d < k; ++d) {
        sites[static_cast<size_t>(d)].stream.push_back(
            pieces[static_cast<size_t>(d)]);
      }
    }
    for (auto& s : sites) out.push_back(std::move(s));
  }
  return out;
}

Result<SearchQuery> IndexPipeline::BuildQuery(
    std::string_view substring) const {
  if (substring.size() < params_.min_query_symbols()) {
    return Status::InvalidArgument(
        "search string shorter than the scheme minimum of " +
        std::to_string(params_.min_query_symbols()) + " symbols");
  }
  SearchQuery q;
  q.symbols_per_chunk = static_cast<uint32_t>(params_.symbols_per_chunk());
  q.chunking_stride = static_cast<uint32_t>(params_.chunking_stride);
  q.dispersal_sites = static_cast<uint32_t>(params_.dispersal_sites);
  q.query_symbols = substring.size();
  q.per_family = params_.per_family_keys;

  // Plaintext chunk series per alignment, built once.
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> plain_series;
  const int p = params_.symbols_per_chunk();
  for (int a = 0; a < p; ++a) {
    std::vector<uint64_t> chunks =
        chunker_->BuildChunks(substring, static_cast<size_t>(a));
    if (chunks.empty()) continue;
    plain_series.emplace_back(static_cast<uint32_t>(a), std::move(chunks));
  }
  // With length >= symbols_per_chunk + stride - 1, every residue class mod
  // stride has a usable series; the Validate above guarantees that.
  ESSDDS_CHECK(!plain_series.empty());

  if (q.per_family) {
    q.family_series.reserve(static_cast<size_t>(params_.num_chunkings()));
    for (int f = 0; f < params_.num_chunkings(); ++f) {
      q.family_series.push_back(EncryptSeries(plain_series, CodebookFor(f)));
    }
  } else {
    q.series = EncryptSeries(plain_series, CodebookFor(0));
  }
  return q;
}

std::vector<QuerySeries> IndexPipeline::EncryptSeries(
    const std::vector<std::pair<uint32_t, std::vector<uint64_t>>>&
        plain_series,
    const crypto::EcbCodebook& codebook) const {
  const int k = params_.dispersal_sites;
  std::vector<QuerySeries> out;
  out.reserve(plain_series.size());
  for (const auto& [alignment, plain_chunks] : plain_series) {
    std::vector<uint64_t> chunks = plain_chunks;
    for (uint64_t& c : chunks) c = codebook.Encrypt(c);
    QuerySeries s;
    s.alignment = alignment;
    if (k > 1) {
      s.pieces.assign(static_cast<size_t>(k), {});
      for (auto& stream : s.pieces) stream.reserve(chunks.size());
      for (uint64_t c : chunks) {
        std::vector<uint32_t> pieces = disperser_->DisperseChunk(c);
        for (int d = 0; d < k; ++d) {
          s.pieces[static_cast<size_t>(d)].push_back(
              pieces[static_cast<size_t>(d)]);
        }
      }
    }
    s.chunks = std::move(chunks);
    out.push_back(std::move(s));
  }
  return out;
}

Bytes IndexPipeline::SerializeStream(
    const std::vector<uint64_t>& stream) const {
  BitWriter w;
  w.Write(stream.size(), 32);
  const int bits = stream_value_bits();
  for (uint64_t v : stream) w.Write(v, bits);
  return w.TakeBuffer();
}

Result<std::vector<uint64_t>> IndexPipeline::DeserializeStream(
    ByteSpan data) const {
  std::vector<uint64_t> out;
  ESSDDS_RETURN_IF_ERROR(DeserializeStreamInto(data, &out));
  return out;
}

Status IndexPipeline::DeserializeStreamInto(ByteSpan data,
                                            std::vector<uint64_t>* out) const {
  out->clear();
  ESSDDS_ASSIGN_OR_RETURN(const PackedValues values, StreamView(data));
  out->reserve(values.size());
  BitReader r(values.data());
  for (size_t i = 0; i < values.size(); ++i) {
    ESSDDS_ASSIGN_OR_RETURN(const uint64_t v, r.Read(values.bits()));
    out->push_back(v);
  }
  return Status::OK();
}

}  // namespace essdds::core
