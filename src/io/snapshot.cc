#include "io/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <type_traits>
#include <utility>

#include "io/artifact_cache.h"
#include "io/corpus_io.h"

namespace ultrawiki {
namespace {

constexpr size_t kHeaderBytes = 20;  // magic + version + kind + payload size
constexpr size_t kFooterBytes = 4;   // CRC32

/// Semantic plausibility caps, checked before any size-driven allocation.
constexpr uint64_t kMaxDim = 1u << 20;

/// Slicing-by-8 tables: table[0] is the bytewise CRC table, and
/// table[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups advance the CRC by eight bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < t.size(); ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

void AppendU32(std::string& out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string& out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

uint32_t DecodeU32(const char* bytes) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

uint64_t DecodeU64(const char* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

/// The unsigned integer with T's size, for the byte-by-byte path.
template <typename T>
using BitsOf = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;

/// Appends `data` as little-endian elements (floats by bit pattern): one
/// copy on a little-endian host, byte by byte elsewhere. The bytes are the
/// same either way.
template <typename T>
void AppendLittleEndian(std::string& out, std::span<const T> data) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if (data.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(data.data()), data.size_bytes());
  } else {
    for (const T v : data) {
      const BitsOf<T> bits = std::bit_cast<BitsOf<T>>(v);
      for (size_t i = 0; i < sizeof(T); ++i) {
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
      }
    }
  }
}

/// Inverse of AppendLittleEndian: fills `out` from `out.size_bytes()`
/// bytes at `bytes`.
template <typename T>
void DecodeLittleEndian(const char* bytes, std::span<T> out) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if (out.empty()) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), bytes, out.size_bytes());
  } else {
    for (T& v : out) {
      BitsOf<T> bits = 0;
      for (size_t i = 0; i < sizeof(T); ++i) {
        bits |= static_cast<BitsOf<T>>(static_cast<unsigned char>(bytes[i]))
                << (8 * i);
      }
      v = std::bit_cast<T>(bits);
      bytes += sizeof(T);
    }
  }
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const Crc32Tables& t = Crc32Table();
  uint32_t crc = ~seed;
  const char* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = DecodeU32(p) ^ crc;
    const uint32_t hi = DecodeU32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFF];
  }
  return ~crc;
}

// --- SnapshotWriter ---

void SnapshotWriter::PutU32(uint32_t value) { AppendU32(payload_, value); }
void SnapshotWriter::PutU64(uint64_t value) { AppendU64(payload_, value); }
void SnapshotWriter::PutF32(float value) {
  PutU32(std::bit_cast<uint32_t>(value));
}
void SnapshotWriter::PutF64(double value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void SnapshotWriter::PutString(std::string_view text) {
  PutU64(text.size());
  payload_.append(text.data(), text.size());
}

void SnapshotWriter::PutFloats(std::span<const float> data) {
  AppendLittleEndian(payload_, data);
}

void SnapshotWriter::PutFloatVec(std::span<const float> data) {
  PutU64(data.size());
  PutFloats(data);
}

void SnapshotWriter::PutI32Vec(std::span<const int32_t> data) {
  PutU64(data.size());
  AppendLittleEndian(payload_, data);
}

void SnapshotWriter::PutU32Vec(std::span<const uint32_t> data) {
  PutU64(data.size());
  AppendLittleEndian(payload_, data);
}

void SnapshotWriter::PutI64Vec(std::span<const int64_t> data) {
  PutU64(data.size());
  AppendLittleEndian(payload_, data);
}

void SnapshotWriter::PutU64Vec(std::span<const uint64_t> data) {
  PutU64(data.size());
  AppendLittleEndian(payload_, data);
}

void SnapshotWriter::PutStringVec(const std::vector<std::string>& strings) {
  PutU64(strings.size());
  for (const std::string& s : strings) PutString(s);
}

// --- SnapshotReader ---

bool SnapshotReader::Take(void* out, size_t size) {
  if (!ok()) return false;
  if (size > remaining()) {
    error_ = "payload truncated";
    return false;
  }
  std::memcpy(out, data_.data() + cursor_, size);
  cursor_ += size;
  return true;
}

bool SnapshotReader::ReadU32(uint32_t* value) {
  char bytes[4];
  if (!Take(bytes, sizeof(bytes))) return false;
  *value = DecodeU32(bytes);
  return true;
}

bool SnapshotReader::ReadU64(uint64_t* value) {
  char bytes[8];
  if (!Take(bytes, sizeof(bytes))) return false;
  *value = DecodeU64(bytes);
  return true;
}

bool SnapshotReader::ReadI32(int32_t* value) {
  uint32_t raw;
  if (!ReadU32(&raw)) return false;
  *value = static_cast<int32_t>(raw);
  return true;
}

bool SnapshotReader::ReadI64(int64_t* value) {
  uint64_t raw;
  if (!ReadU64(&raw)) return false;
  *value = static_cast<int64_t>(raw);
  return true;
}

bool SnapshotReader::ReadF32(float* value) {
  uint32_t raw;
  if (!ReadU32(&raw)) return false;
  *value = std::bit_cast<float>(raw);
  return true;
}

bool SnapshotReader::ReadF64(double* value) {
  uint64_t raw;
  if (!ReadU64(&raw)) return false;
  *value = std::bit_cast<double>(raw);
  return true;
}

bool SnapshotReader::ReadString(std::string* value) {
  uint64_t size;
  if (!ReadU64(&size)) return false;
  if (size > remaining()) {
    error_ = "string length exceeds remaining payload";
    return false;
  }
  value->assign(data_.data() + cursor_, static_cast<size_t>(size));
  cursor_ += static_cast<size_t>(size);
  return true;
}

bool SnapshotReader::ReadFloats(std::span<float> data) {
  if (!ok()) return false;
  if (data.size() > remaining() / sizeof(float)) {
    error_ = "float block exceeds remaining payload";
    return false;
  }
  DecodeLittleEndian(data_.data() + cursor_, data);
  cursor_ += data.size_bytes();
  return true;
}

bool SnapshotReader::ReadFloatVec(std::vector<float>* data) {
  uint64_t count;
  if (!ReadCount(sizeof(float), "float vector", &count)) return false;
  data->resize(static_cast<size_t>(count));
  return ReadFloats(std::span<float>(*data));
}

template <typename T>
bool SnapshotReader::ReadVec(const char* what, std::vector<T>* data) {
  uint64_t count;
  if (!ReadCount(sizeof(T), what, &count)) return false;
  data->resize(static_cast<size_t>(count));
  DecodeLittleEndian(data_.data() + cursor_, std::span<T>(*data));
  cursor_ += data->size() * sizeof(T);
  return true;
}

bool SnapshotReader::ReadI32Vec(std::vector<int32_t>* data) {
  return ReadVec("i32 vector", data);
}

bool SnapshotReader::ReadU32Vec(std::vector<uint32_t>* data) {
  return ReadVec("u32 vector", data);
}

bool SnapshotReader::ReadI64Vec(std::vector<int64_t>* data) {
  return ReadVec("i64 vector", data);
}

bool SnapshotReader::ReadU64Vec(std::vector<uint64_t>* data) {
  return ReadVec("u64 vector", data);
}

bool SnapshotReader::ReadStringVec(std::vector<std::string>* strings) {
  uint64_t count;
  if (!ReadCount(8, "string vector", &count)) return false;
  strings->resize(static_cast<size_t>(count));
  for (std::string& s : *strings) {
    if (!ReadString(&s)) return false;
  }
  return true;
}

bool SnapshotReader::ReadCount(size_t min_bytes_per_element,
                               const char* what, uint64_t* count) {
  if (!ReadU64(count)) return false;
  if (min_bytes_per_element > 0 &&
      *count > remaining() / min_bytes_per_element) {
    Corrupt(std::string(what) + " count exceeds remaining payload");
    return false;
  }
  return true;
}

Status SnapshotReader::Finish() const {
  if (!ok()) return Status::Internal("corrupt snapshot payload: " + error_);
  if (remaining() != 0) {
    return Status::Internal("snapshot payload has " +
                            std::to_string(remaining()) +
                            " unconsumed byte(s)");
  }
  return Status::Ok();
}

void SnapshotReader::Corrupt(std::string reason) {
  if (ok()) error_ = std::move(reason);
}

// --- File framing ---

Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                         const SnapshotWriter& writer) {
  std::string framed;
  framed.reserve(kHeaderBytes + writer.payload().size() + kFooterBytes);
  AppendU32(framed, kSnapshotMagic);
  AppendU32(framed, kSnapshotVersion);
  AppendU32(framed, static_cast<uint32_t>(kind));
  AppendU64(framed, writer.payload().size());
  framed += writer.payload();
  AppendU32(framed, Crc32(framed));

  // Write-then-rename so readers never observe a torn snapshot.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open for writing: " + tmp);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    if (!out) return Status::Internal("snapshot write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::Internal("cannot move snapshot into place: " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadSnapshotFile(const std::string& path,
                                       SnapshotKind kind) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open snapshot: " + path);
  const std::streamoff file_size = in.tellg();
  in.seekg(0);
  if (file_size < 0 || !in) {
    return Status::Internal("snapshot read failed: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(file_size);
  if (size < kHeaderBytes + kFooterBytes) {
    return Status::Internal("truncated snapshot (no complete header): " +
                            path);
  }
  char header[kHeaderBytes];
  if (!in.read(header, sizeof(header))) {
    return Status::Internal("snapshot read failed: " + path);
  }
  if (DecodeU32(header) != kSnapshotMagic) {
    return Status::Internal("not a snapshot file (bad magic): " + path);
  }
  const uint32_t version = DecodeU32(header + 4);
  if (version != kSnapshotVersion) {
    return Status::Internal("unsupported snapshot version " +
                            std::to_string(version) + " (want " +
                            std::to_string(kSnapshotVersion) + "): " + path);
  }
  if (DecodeU32(header + 8) != static_cast<uint32_t>(kind)) {
    return Status::Internal("snapshot holds a different artifact kind: " +
                            path);
  }
  const uint64_t payload_size = DecodeU64(header + 12);
  const uint64_t body = size - kHeaderBytes - kFooterBytes;
  if (payload_size > body) {
    return Status::Internal("truncated snapshot payload: " + path);
  }
  if (payload_size < body) {
    return Status::Internal("snapshot has trailing bytes after footer: " +
                            path);
  }
  // One sized read straight into the returned payload, then the footer.
  std::string payload(static_cast<size_t>(payload_size), '\0');
  char footer[kFooterBytes];
  if (!in.read(payload.data(), static_cast<std::streamsize>(payload.size())) ||
      !in.read(footer, sizeof(footer))) {
    return Status::Internal("snapshot read failed: " + path);
  }
  const uint32_t actual_crc =
      Crc32(payload, Crc32(std::string_view(header, sizeof(header))));
  if (DecodeU32(footer) != actual_crc) {
    return Status::Internal("snapshot checksum mismatch: " + path);
  }
  return payload;
}

namespace {

// --- Corpus (encoded inside the world snapshot) ---

void EncodeCorpus(SnapshotWriter& out, const Corpus& corpus) {
  const Vocabulary& vocab = corpus.tokens();
  out.PutU64(vocab.size());
  for (TokenId t = 0; t < static_cast<TokenId>(vocab.size()); ++t) {
    out.PutString(vocab.TokenOf(t));
    out.PutI64(vocab.CountOf(t));
  }
  out.PutU64(corpus.entity_count());
  for (EntityId id = 0; id < static_cast<EntityId>(corpus.entity_count());
       ++id) {
    const Entity& entity = corpus.entity(id);
    out.PutString(entity.name);
    out.PutStringVec(entity.name_tokens);
    out.PutI32(entity.class_id);
    out.PutU32(entity.is_long_tail ? 1 : 0);
    out.PutU64(entity.attribute_values.size());
    for (const int v : entity.attribute_values) out.PutI32(v);
  }
  out.PutU64(corpus.sentence_count());
  for (size_t s = 0; s < corpus.sentence_count(); ++s) {
    const Sentence& sentence = corpus.sentence(s);
    out.PutI32(sentence.entity);
    out.PutI32(sentence.mention_begin);
    out.PutI32(sentence.mention_len);
    out.PutI32Vec(sentence.tokens);
  }
  out.PutU64(corpus.auxiliary_sentences().size());
  for (const auto& tokens : corpus.auxiliary_sentences()) {
    out.PutI32Vec(tokens);
  }
}

bool ValidTokens(const std::vector<TokenId>& tokens, size_t vocab_size) {
  for (const TokenId t : tokens) {
    if (t < 0 || static_cast<size_t>(t) >= vocab_size) return false;
  }
  return true;
}

Status DecodeCorpus(SnapshotReader& in, Corpus* corpus) {
  uint64_t token_count;
  // Each token record is at least len(8) + count(8) bytes.
  if (!in.ReadCount(16, "vocabulary", &token_count)) {
    return Status::Internal("corrupt corpus snapshot (vocabulary header)");
  }
  for (uint64_t t = 0; t < token_count; ++t) {
    std::string token;
    int64_t count;
    if (!in.ReadString(&token) || !in.ReadI64(&count)) {
      return Status::Internal("corrupt corpus snapshot (vocabulary)");
    }
    if (corpus->tokens().AddToken(token, count) !=
        static_cast<TokenId>(t)) {
      return Status::Internal("corpus snapshot repeats vocabulary token: " +
                              token);
    }
  }
  uint64_t entity_count;
  // name len + name-token count + class + flag + attr count.
  if (!in.ReadCount(32, "entity", &entity_count)) {
    return Status::Internal("corrupt corpus snapshot (entity header)");
  }
  for (uint64_t e = 0; e < entity_count; ++e) {
    Entity entity;
    uint32_t long_tail;
    uint64_t value_count;
    if (!in.ReadString(&entity.name) ||
        !in.ReadStringVec(&entity.name_tokens) ||
        !in.ReadI32(&entity.class_id) || !in.ReadU32(&long_tail) ||
        !in.ReadCount(4, "attribute value", &value_count)) {
      return Status::Internal("corrupt corpus snapshot (entity record)");
    }
    if (long_tail > 1) {
      return Status::Internal("corrupt corpus snapshot (long-tail flag)");
    }
    entity.is_long_tail = long_tail == 1;
    entity.attribute_values.resize(static_cast<size_t>(value_count));
    for (int& v : entity.attribute_values) {
      if (!in.ReadI32(&v)) {
        return Status::Internal("corrupt corpus snapshot (entity values)");
      }
    }
    corpus->AddEntity(std::move(entity));
  }
  uint64_t sentence_count;
  // entity + begin + len + token count.
  if (!in.ReadCount(20, "sentence", &sentence_count)) {
    return Status::Internal("corrupt corpus snapshot (sentence header)");
  }
  for (uint64_t s = 0; s < sentence_count; ++s) {
    Sentence sentence;
    if (!in.ReadI32(&sentence.entity) ||
        !in.ReadI32(&sentence.mention_begin) ||
        !in.ReadI32(&sentence.mention_len) ||
        !in.ReadI32Vec(&sentence.tokens)) {
      return Status::Internal("corrupt corpus snapshot (sentence record)");
    }
    if (sentence.entity < 0 ||
        static_cast<uint64_t>(sentence.entity) >= entity_count ||
        sentence.mention_begin < 0 || sentence.mention_len < 0 ||
        static_cast<int64_t>(sentence.mention_begin) +
                static_cast<int64_t>(sentence.mention_len) >
            static_cast<int64_t>(sentence.tokens.size()) ||
        !ValidTokens(sentence.tokens, corpus->tokens().size())) {
      return Status::Internal("corpus snapshot sentence out of bounds");
    }
    corpus->AddSentence(std::move(sentence));
  }
  uint64_t auxiliary_count;
  if (!in.ReadCount(8, "auxiliary sentence", &auxiliary_count)) {
    return Status::Internal("corrupt corpus snapshot (auxiliary header)");
  }
  for (uint64_t s = 0; s < auxiliary_count; ++s) {
    std::vector<TokenId> tokens;
    if (!in.ReadI32Vec(&tokens)) {
      return Status::Internal("corrupt corpus snapshot (auxiliary record)");
    }
    if (!ValidTokens(tokens, corpus->tokens().size())) {
      return Status::Internal("auxiliary sentence token out of range");
    }
    corpus->AddAuxiliarySentence(std::move(tokens));
  }
  return Status::Ok();
}

// --- GeneratedWorld ---

void EncodeAttribute(SnapshotWriter& out, const AttributeDef& attr) {
  out.PutString(attr.name);
  out.PutF64(attr.signal_rate);
  out.PutF64(attr.canonical_rate);
  out.PutStringVec(attr.values);
  for (const auto& clue : attr.clue_tokens) out.PutStringVec(clue);
  for (const auto& variants : attr.clue_variants) {
    out.PutU64(variants.size());
    for (const auto& phrase : variants) out.PutStringVec(phrase);
  }
}

Status DecodeAttribute(SnapshotReader& in, AttributeDef* attr) {
  if (!in.ReadString(&attr->name) || !in.ReadF64(&attr->signal_rate) ||
      !in.ReadF64(&attr->canonical_rate) ||
      !in.ReadStringVec(&attr->values)) {
    return Status::Internal("corrupt world snapshot (attribute)");
  }
  attr->clue_tokens.resize(attr->values.size());
  for (auto& clue : attr->clue_tokens) {
    if (!in.ReadStringVec(&clue)) {
      return Status::Internal("corrupt world snapshot (attribute clues)");
    }
  }
  attr->clue_variants.resize(attr->values.size());
  for (auto& variants : attr->clue_variants) {
    uint64_t phrase_count;
    if (!in.ReadCount(8, "clue variant", &phrase_count)) {
      return Status::Internal("corrupt world snapshot (clue variants)");
    }
    variants.resize(static_cast<size_t>(phrase_count));
    for (auto& phrase : variants) {
      if (!in.ReadStringVec(&phrase)) {
        return Status::Internal("corrupt world snapshot (clue phrase)");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status SaveWorldSnapshot(const GeneratedWorld& world,
                         const std::string& path) {
  SnapshotWriter out;
  out.PutU64(world.fingerprint);
  EncodeCorpus(out, world.corpus);
  out.PutU64(world.schema.size());
  for (const FineClassSpec& spec : world.schema) {
    out.PutString(spec.name);
    out.PutString(spec.coarse_category);
    out.PutString(spec.singular_noun);
    out.PutString(spec.plural_noun);
    out.PutI32(spec.entity_count);
    out.PutI32(spec.name_style);
    out.PutStringVec(spec.topic_tokens);
    out.PutU64(spec.attributes.size());
    for (const AttributeDef& attr : spec.attributes) {
      EncodeAttribute(out, attr);
    }
  }
  out.PutU64(world.kb.size());
  for (EntityId id = 0; id < static_cast<EntityId>(world.kb.size()); ++id) {
    out.PutI32Vec(world.kb.IntroductionOf(id));
    out.PutI32Vec(world.kb.WikidataAttributesOf(id));
  }
  out.PutI32Vec(world.background_entities);
  return WriteSnapshotFile(path, SnapshotKind::kWorld, out);
}

StatusOr<GeneratedWorld> LoadWorldSnapshot(const std::string& path) {
  auto payload = ReadSnapshotFile(path, SnapshotKind::kWorld);
  if (!payload.ok()) return payload.status();
  SnapshotReader in(*payload);
  GeneratedWorld world;
  if (!in.ReadU64(&world.fingerprint)) {
    return Status::Internal("corrupt world snapshot (fingerprint)");
  }
  Status status = DecodeCorpus(in, &world.corpus);
  if (!status.ok()) return status;

  uint64_t class_count;
  // Four string lengths + two ints + two counts per class at minimum.
  if (!in.ReadCount(56, "schema class", &class_count)) {
    return Status::Internal("corrupt world snapshot (schema header)");
  }
  world.schema.resize(static_cast<size_t>(class_count));
  for (FineClassSpec& spec : world.schema) {
    uint64_t attr_count;
    if (!in.ReadString(&spec.name) ||
        !in.ReadString(&spec.coarse_category) ||
        !in.ReadString(&spec.singular_noun) ||
        !in.ReadString(&spec.plural_noun) ||
        !in.ReadI32(&spec.entity_count) || !in.ReadI32(&spec.name_style) ||
        !in.ReadStringVec(&spec.topic_tokens) ||
        !in.ReadCount(32, "attribute", &attr_count)) {
      return Status::Internal("corrupt world snapshot (class record)");
    }
    spec.attributes.resize(static_cast<size_t>(attr_count));
    for (AttributeDef& attr : spec.attributes) {
      status = DecodeAttribute(in, &attr);
      if (!status.ok()) return status;
    }
  }

  uint64_t kb_count;
  if (!in.ReadCount(16, "knowledge-base entry", &kb_count)) {
    return Status::Internal("corrupt world snapshot (kb header)");
  }
  if (kb_count != world.corpus.entity_count()) {
    return Status::Internal(
        "world snapshot knowledge base does not cover all entities");
  }
  for (uint64_t id = 0; id < kb_count; ++id) {
    std::vector<TokenId> introduction;
    std::vector<TokenId> wikidata;
    if (!in.ReadI32Vec(&introduction) || !in.ReadI32Vec(&wikidata)) {
      return Status::Internal("corrupt world snapshot (kb record)");
    }
    if (!ValidTokens(introduction, world.corpus.tokens().size()) ||
        !ValidTokens(wikidata, world.corpus.tokens().size())) {
      return Status::Internal("world snapshot kb token out of range");
    }
    world.kb.Add(static_cast<EntityId>(id), std::move(introduction),
                 std::move(wikidata));
  }

  if (!in.ReadI32Vec(&world.background_entities)) {
    return Status::Internal("corrupt world snapshot (background ids)");
  }
  for (const EntityId id : world.background_entities) {
    if (id < 0 ||
        static_cast<size_t>(id) >= world.corpus.entity_count() ||
        world.corpus.entity(id).class_id != kBackgroundClassId) {
      return Status::Internal(
          "world snapshot background id is not a background entity");
    }
  }
  for (EntityId id = 0;
       id < static_cast<EntityId>(world.corpus.entity_count()); ++id) {
    const ClassId class_id = world.corpus.entity(id).class_id;
    if (class_id != kBackgroundClassId &&
        (class_id < 0 ||
         static_cast<size_t>(class_id) >= world.schema.size())) {
      return Status::Internal("world snapshot entity references unknown class");
    }
  }
  status = in.Finish();
  if (!status.ok()) return status;
  status = RebuildWorldValueIndex(world);
  if (!status.ok()) return status;
  return world;
}

// --- InvertedIndex ---

Status SaveIndexSnapshot(const InvertedIndex& index,
                         const std::string& path) {
  if (!index.is_frozen()) {
    return Status::InvalidArgument(
        "index snapshots serialize the compressed form; call Freeze() "
        "before SaveIndexSnapshot");
  }
  SnapshotWriter out;
  out.PutU64(kIndexPayloadTagBase | kIndexPayloadVersion);
  std::vector<int32_t> doc_lengths(index.document_count());
  for (size_t d = 0; d < doc_lengths.size(); ++d) {
    doc_lengths[d] = index.DocumentLength(static_cast<DocId>(d));
  }
  out.PutI32Vec(doc_lengths);
  // The frozen term directory is already ascending by term id, so the
  // bytes are deterministic without re-sorting.
  const std::vector<CompressedTermList>& terms = index.frozen_terms();
  out.PutU64(terms.size());
  for (const CompressedTermList& list : terms) {
    out.PutI32(list.term);
    out.PutI64(list.doc_frequency);
    out.PutU64(list.block_end - list.block_begin);
  }
  const std::vector<PostingBlockMeta>& blocks = index.frozen_blocks();
  out.PutU64(blocks.size());
  for (const PostingBlockMeta& meta : blocks) {
    out.PutI32(meta.last_doc);
    out.PutU32(meta.count);
    out.PutI32(meta.max_tf);
    out.PutI32(meta.min_dl);
    out.PutU64(meta.length);
  }
  out.PutString(index.compressed_payload());
  return WriteSnapshotFile(path, SnapshotKind::kInvertedIndex, out);
}

StatusOr<InvertedIndex> LoadIndexSnapshot(const std::string& path) {
  auto payload = ReadSnapshotFile(path, SnapshotKind::kInvertedIndex);
  if (!payload.ok()) return payload.status();
  SnapshotReader in(*payload);
  uint64_t first_word;
  if (!in.ReadU64(&first_word)) {
    return Status::Internal("corrupt index snapshot (empty payload)");
  }
  if ((first_word & ~kIndexPayloadVersionMask) != kIndexPayloadTagBase) {
    return Status::Internal("index snapshot payload has no version tag");
  }
  const uint64_t version = first_word & kIndexPayloadVersionMask;
  if (version != kIndexPayloadVersion) {
    return Status::Internal("unsupported index payload version " +
                            std::to_string(version));
  }

  std::vector<int32_t> doc_lengths;
  if (!in.ReadI32Vec(&doc_lengths)) {
    return Status::Internal("corrupt index snapshot (document lengths)");
  }
  uint64_t term_count;
  // term id + doc frequency + block count.
  if (!in.ReadCount(20, "index term", &term_count)) {
    return Status::Internal("corrupt index snapshot (term directory)");
  }
  std::vector<CompressedTermList> terms(static_cast<size_t>(term_count));
  uint64_t declared_blocks = 0;
  for (CompressedTermList& list : terms) {
    uint64_t block_count;
    if (!in.ReadI32(&list.term) || !in.ReadI64(&list.doc_frequency) ||
        !in.ReadU64(&block_count)) {
      return Status::Internal("corrupt index snapshot (term record)");
    }
    if (list.doc_frequency <= 0 || block_count == 0 ||
        block_count > UINT32_MAX - declared_blocks) {
      return Status::Internal("corrupt index snapshot (term geometry)");
    }
    list.block_begin = static_cast<uint32_t>(declared_blocks);
    declared_blocks += block_count;
    list.block_end = static_cast<uint32_t>(declared_blocks);
  }
  uint64_t block_count;
  // last doc + count + max tf + min dl + byte length.
  if (!in.ReadCount(24, "index block", &block_count) ||
      block_count != declared_blocks) {
    return Status::Internal("corrupt index snapshot (block directory)");
  }
  std::vector<PostingBlockMeta> blocks(static_cast<size_t>(block_count));
  uint64_t offset = 0;
  for (PostingBlockMeta& meta : blocks) {
    uint64_t length;
    if (!in.ReadI32(&meta.last_doc) || !in.ReadU32(&meta.count) ||
        !in.ReadI32(&meta.max_tf) || !in.ReadI32(&meta.min_dl) ||
        !in.ReadU64(&length)) {
      return Status::Internal("corrupt index snapshot (block record)");
    }
    if (length == 0 || length > UINT32_MAX || offset > UINT64_MAX - length) {
      return Status::Internal("corrupt index snapshot (block length)");
    }
    meta.offset = offset;
    meta.length = static_cast<uint32_t>(length);
    offset += length;
  }
  std::string encoded;
  if (!in.ReadString(&encoded)) {
    return Status::Internal("corrupt index snapshot (block payload)");
  }
  Status status = in.Finish();
  if (!status.ok()) return status;
  InvertedIndex index;
  // RestoreCompressed decodes and cross-checks every block against its
  // metadata, so a file that passes CRC but carries inconsistent pruning
  // bounds still fails closed here.
  if (!InvertedIndex::RestoreCompressed(std::move(doc_lengths),
                                        std::move(terms), std::move(blocks),
                                        std::move(encoded), &index)) {
    return Status::Internal(
        "corrupt index snapshot (compressed postings failed validation)");
  }
  return index;
}

// --- EntityStore ---

Status SaveEntityStoreSnapshot(const EntityStore& store,
                               const std::string& path) {
  // Only the raw hidden rows are serialized; the norm cache and unit rows
  // are rebuilt deterministically by EntityStore::Restore, so a restored
  // store scores bit-identically to the one that was saved.
  SnapshotWriter out;
  out.PutU64(store.dim());
  out.PutU64(store.slot_count());
  for (EntityId id = 0; static_cast<size_t>(id) < store.slot_count();
       ++id) {
    const bool present = store.Has(id);
    out.PutU32(present ? 1 : 0);
    if (present) out.PutFloats(store.HiddenOf(id));
  }
  return WriteSnapshotFile(path, SnapshotKind::kEntityStore, out);
}

StatusOr<EntityStore> LoadEntityStoreSnapshot(const std::string& path) {
  auto payload = ReadSnapshotFile(path, SnapshotKind::kEntityStore);
  if (!payload.ok()) return payload.status();
  SnapshotReader in(*payload);
  uint64_t dim;
  uint64_t slot_count;
  if (!in.ReadU64(&dim)) {
    return Status::Internal("corrupt entity-store snapshot (dim)");
  }
  if (dim == 0 || dim > kMaxDim) {
    return Status::Internal("entity-store snapshot has implausible dim " +
                            std::to_string(dim));
  }
  if (!in.ReadCount(4, "entity slot", &slot_count)) {
    return Status::Internal("corrupt entity-store snapshot (slot header)");
  }
  std::vector<Vec> hidden(static_cast<size_t>(slot_count));
  for (Vec& h : hidden) {
    uint32_t present;
    if (!in.ReadU32(&present)) {
      return Status::Internal("corrupt entity-store snapshot (slot flag)");
    }
    if (present > 1) {
      return Status::Internal("entity-store snapshot slot flag corrupt");
    }
    if (present == 1) {
      h.resize(static_cast<size_t>(dim));
      if (!in.ReadFloats(h)) {
        return Status::Internal("corrupt entity-store snapshot (vector)");
      }
    }
  }
  Status status = in.Finish();
  if (!status.ok()) return status;
  return EntityStore::Restore(static_cast<size_t>(dim), std::move(hidden));
}

// --- IvfIndex (ANN) ---

namespace {

/// Payload version for SnapshotKind::kAnnIndex; the envelope version
/// (kSnapshotVersion) covers the framing, this covers the IVF encoding.
constexpr uint32_t kAnnPayloadVersion = 1;

}  // namespace

Status SaveAnnIndexSnapshot(const IvfIndex& index,
                            const std::string& path) {
  SnapshotWriter out;
  out.PutU32(kAnnPayloadVersion);
  out.PutU64(FingerprintConfig(index.config()));
  out.PutU64(index.dim());
  out.PutU64(index.nlist());
  out.PutFloats(index.centroids());
  for (const std::vector<EntityId>& list : index.lists()) {
    out.PutI32Vec(list);
  }
  return WriteSnapshotFile(path, SnapshotKind::kAnnIndex, out);
}

StatusOr<IvfIndex> LoadAnnIndexSnapshot(const std::string& path,
                                        const IvfConfig& config) {
  auto payload = ReadSnapshotFile(path, SnapshotKind::kAnnIndex);
  if (!payload.ok()) return payload.status();
  SnapshotReader in(*payload);
  uint32_t version;
  if (!in.ReadU32(&version)) {
    return Status::Internal("corrupt ANN snapshot (version)");
  }
  if (version != kAnnPayloadVersion) {
    return Status::Internal("unsupported ANN payload version " +
                            std::to_string(version));
  }
  uint64_t fingerprint;
  if (!in.ReadU64(&fingerprint)) {
    return Status::Internal("corrupt ANN snapshot (config fingerprint)");
  }
  if (fingerprint != FingerprintConfig(config)) {
    return Status::Internal(
        "ANN snapshot was built from a different IvfConfig: " + path);
  }
  uint64_t dim;
  uint64_t nlist;
  if (!in.ReadU64(&dim) || !in.ReadU64(&nlist)) {
    return Status::Internal("corrupt ANN snapshot (geometry)");
  }
  if (dim > kMaxDim) {
    return Status::Internal("ANN snapshot has implausible dim " +
                            std::to_string(dim));
  }
  if (dim > 0 && nlist > in.remaining() / (dim * sizeof(float))) {
    return Status::Internal("ANN snapshot nlist exceeds remaining payload");
  }
  std::vector<float> centroids(static_cast<size_t>(nlist * dim));
  if (!in.ReadFloats(centroids)) {
    return Status::Internal("corrupt ANN snapshot (centroids)");
  }
  std::vector<std::vector<EntityId>> lists(static_cast<size_t>(nlist));
  for (std::vector<EntityId>& list : lists) {
    if (!in.ReadI32Vec(&list)) {
      return Status::Internal("corrupt ANN snapshot (list)");
    }
  }
  Status status = in.Finish();
  if (!status.ok()) return status;
  return IvfIndex::Restore(config, static_cast<size_t>(dim),
                           std::move(centroids), std::move(lists));
}

// --- HybridLm ---

namespace {

/// Payload version for SnapshotKind::kLanguageModel.
constexpr uint32_t kLmPayloadVersion = 1;

void EncodeCountRows(SnapshotWriter& out, const CountRows& rows) {
  out.PutU32Vec(rows.offsets);
  out.PutI32Vec(rows.targets);
  out.PutI32Vec(rows.counts);
  out.PutI64Vec(rows.totals);
}

bool DecodeCountRows(SnapshotReader& in, CountRows* rows) {
  return in.ReadU32Vec(&rows->offsets) && in.ReadI32Vec(&rows->targets) &&
         in.ReadI32Vec(&rows->counts) && in.ReadI64Vec(&rows->totals);
}

}  // namespace

Status SaveLmSnapshot(const HybridLm& lm, const std::string& path) {
  const NgramLm& ngram = lm.ngram();
  if (!ngram.frozen() || !lm.association().frozen()) {
    return Status::InvalidArgument(
        "LM snapshots serialize the frozen form; call Finalize() before "
        "SaveLmSnapshot");
  }
  SnapshotWriter out;
  out.PutU32(kLmPayloadVersion);
  out.PutU64(FingerprintConfig(lm.config()));
  out.PutU64(lm.vocab_size());
  out.PutI32Vec(lm.SortedStopTokens());
  out.PutI64Vec(ngram.unigram_counts());
  out.PutU64(ngram.levels().size());
  for (const NgramLm::Level& level : ngram.levels()) {
    out.PutU64Vec(level.keys);
    EncodeCountRows(out, level.rows);
  }
  EncodeCountRows(out, lm.association().rows());
  return WriteSnapshotFile(path, SnapshotKind::kLanguageModel, out);
}

StatusOr<HybridLm> LoadLmSnapshot(const std::string& path, size_t vocab_size,
                                  const HybridLmConfig& config) {
  auto payload = ReadSnapshotFile(path, SnapshotKind::kLanguageModel);
  if (!payload.ok()) return payload.status();
  SnapshotReader in(*payload);
  uint32_t version;
  uint64_t fingerprint;
  uint64_t stored_vocab;
  if (!in.ReadU32(&version) || !in.ReadU64(&fingerprint) ||
      !in.ReadU64(&stored_vocab)) {
    return Status::Internal("corrupt LM snapshot (header)");
  }
  if (version != kLmPayloadVersion) {
    return Status::Internal("unsupported LM payload version " +
                            std::to_string(version));
  }
  if (fingerprint != FingerprintConfig(config)) {
    return Status::Internal(
        "LM snapshot was built from a different HybridLmConfig: " + path);
  }
  if (stored_vocab != vocab_size) {
    return Status::Internal("LM snapshot vocabulary size mismatch: " + path);
  }
  std::vector<TokenId> stop_tokens;
  std::vector<int64_t> unigram_counts;
  uint64_t level_count;
  // Each level holds at least five count prefixes.
  if (!in.ReadI32Vec(&stop_tokens) || !in.ReadI64Vec(&unigram_counts) ||
      !in.ReadCount(40, "n-gram level", &level_count)) {
    return Status::Internal("corrupt LM snapshot (unigram table)");
  }
  for (size_t i = 0; i < stop_tokens.size(); ++i) {
    if (stop_tokens[i] < 0 ||
        static_cast<size_t>(stop_tokens[i]) >= vocab_size ||
        (i > 0 && stop_tokens[i] <= stop_tokens[i - 1])) {
      return Status::Internal("LM snapshot stop tokens are not sorted ids");
    }
  }
  std::vector<NgramLm::Level> levels(static_cast<size_t>(level_count));
  for (NgramLm::Level& level : levels) {
    if (!in.ReadU64Vec(&level.keys) || !DecodeCountRows(in, &level.rows)) {
      return Status::Internal("corrupt LM snapshot (n-gram level)");
    }
  }
  CountRows association_rows;
  if (!DecodeCountRows(in, &association_rows)) {
    return Status::Internal("corrupt LM snapshot (association rows)");
  }
  Status status = in.Finish();
  if (!status.ok()) return status;
  // Restore validates every array; any violation fails the load.
  auto ngram = NgramLm::Restore(vocab_size, config.ngram,
                                std::move(unigram_counts), std::move(levels));
  if (!ngram.ok()) return ngram.status();
  auto association =
      AssociationModel::Restore(vocab_size, std::move(association_rows));
  if (!association.ok()) return association.status();
  return HybridLm::Restore(
      config, std::move(ngram).value(), std::move(association).value(),
      std::unordered_set<TokenId>(stop_tokens.begin(), stop_tokens.end()));
}

}  // namespace ultrawiki
