#include "expand/pipeline.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/env.h"
#include "common/hash.h"
#include "common/logging.h"
#include "io/artifact_cache.h"
#include "io/model_io.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultrawiki {

PipelineConfig PipelineConfig::Bench() {
  PipelineConfig config;
  config.generator.seed = 1;
  config.generator.scale = 0.35;
  config.dataset.seed = 7;
  config.encoder_train.epochs = 10;
  config.weak_encoder_train.epochs = 4;
  config.weak_encoder_train.learning_rate = 0.04f;
  config.weak_encoder_train.seed = 55;
  return config;
}

PipelineConfig PipelineConfig::Tiny() {
  PipelineConfig config;
  config.generator.seed = 1;
  config.generator.scale = 0.12;
  config.generator.min_entities_per_class = 30;
  config.generator.background_entity_count = 120;
  config.generator.sentences_per_entity = 10;
  config.dataset.ultra_class_scale = 0.12;
  config.encoder_train.epochs = 2;
  config.weak_encoder_train.epochs = 4;
  config.weak_encoder_train.seed = 55;
  config.contrast.epochs = 1;
  return config;
}

Pipeline Pipeline::Build(const PipelineConfig& config) {
  UW_SPAN("pipeline.build");
  return Pipeline(config);
}

// Every cached artifact goes through LoadOrBuild, keyed on the world's
// generator fingerprint plus the configs that shaped it. A world of
// unknown provenance (fingerprint 0, e.g. loaded from TSV) makes every
// derived key 0, which LoadOrBuild never caches.
Pipeline::Pipeline(const PipelineConfig& config)
    : config_(config),
      world_(LoadOrBuild(
          "world", FingerprintConfig(config.generator),
          [](const std::string& path) {
            UW_SPAN("cache.load_world");
            return LoadWorldSnapshot(path);
          },
          [&config] {
            UW_SPAN("generate_world");
            return GenerateWorld(config.generator);
          },
          SaveWorldSnapshot)) {
  {
    UW_SPAN("build_dataset");
    auto built = BuildDataset(world_, config.dataset);
    UW_CHECK(built.ok()) << built.status();
    dataset_ = std::move(built).value();
  }

  oracle_ = std::make_unique<LlmOracle>(&world_, config.oracle);

  // Main encoder: entity-prediction training over the full corpus.
  const Corpus& corpus = world_.corpus;
  const uint64_t encoder_key = CombineFingerprints(
      {world_.fingerprint, FingerprintConfig(config.encoder),
       FingerprintConfig(config.encoder_train)});
  encoder_ = std::make_unique<ContextEncoder>(LoadOrBuild(
      "encoder", encoder_key,
      [](const std::string& path) {
        UW_SPAN("cache.load_encoder");
        return LoadEncoder(path);
      },
      [this, &config] {
        UW_SPAN("train_encoder");
        return TrainEncoder(config.encoder, config.encoder_train);
      },
      SaveEncoder));

  // Entity store: keyed on the encoder key plus the store and dataset
  // configs (the build set is the dataset's candidate vocabulary).
  store_key_ = CombineFingerprints({encoder_key,
                                    FingerprintConfig(config.store),
                                    FingerprintConfig(config.dataset)});
  store_ = std::make_unique<EntityStore>(LoadOrBuild(
      "store", store_key_,
      [](const std::string& path) {
        UW_SPAN("cache.load_store");
        return LoadEntityStoreSnapshot(path);
      },
      [&] {
        UW_SPAN("entity_store");
        return EntityStore::Build(corpus, *encoder_, dataset_.candidates,
                                  config.store);
      },
      SaveEntityStoreSnapshot));

  // Language model: "further pretraining" on the corpus.
  lm_ = LoadOrTrainLm(config.lm, config.lm_pretrain_fraction);

  // Prefix trie over candidate surface forms.
  {
    UW_SPAN("build_trie");
    trie_ = std::make_unique<PrefixTrie>(
        BuildNameTrie(corpus, dataset_.candidates));
  }
  similarity_ = std::make_unique<LmEntitySimilarity>(corpus, *lm_);
  obs::GetGauge("pipeline.candidates").Set(
      static_cast<int64_t>(dataset_.candidates.size()));
  obs::GetGauge("pipeline.corpus_sentences")
      .Set(static_cast<int64_t>(corpus.sentence_count()));
}

ContextEncoder Pipeline::TrainEncoder(
    const EncoderConfig& encoder,
    const EntityPredictionTrainConfig& train) const {
  const Corpus& corpus = world_.corpus;
  ContextEncoder trained(corpus.tokens().size(), corpus.entity_count(),
                         encoder);
  trained.SetTokenWeights(ComputeSifTokenWeights(corpus.tokens()));
  TrainEntityPrediction(corpus, trained, train);
  return trained;
}

// Keyed on the world, the LM config, the pretraining fraction and the
// stop tokens: everything the frozen tables and the scores depend on.
std::unique_ptr<HybridLm> Pipeline::LoadOrTrainLm(
    const HybridLmConfig& config, double fraction) const {
  UW_CHECK_GT(fraction, 0.0);
  const std::vector<TokenId> stops = StopTokens();
  Fnv1a stop_hash;
  for (const TokenId token : stops) stop_hash.Mix(token);
  const uint64_t key = CombineFingerprints(
      {world_.fingerprint, FingerprintConfig(config),
       std::bit_cast<uint64_t>(fraction), stop_hash.digest()});
  const size_t vocab_size = world_.corpus.tokens().size();
  return std::make_unique<HybridLm>(LoadOrBuild(
      "lm", key,
      [&](const std::string& path) {
        UW_SPAN("cache.load_lm");
        return LoadLmSnapshot(path, vocab_size, config);
      },
      [&] {
        UW_SPAN("lm_pretrain");
        HybridLm lm(vocab_size, config);
        lm.SetStopTokens(
            std::unordered_set<TokenId>(stops.begin(), stops.end()));
        TrainLmOn(lm, fraction);
        return lm;
      },
      SaveLmSnapshot));
}

void Pipeline::TrainLmOn(HybridLm& lm, double fraction) const {
  const Corpus& corpus = world_.corpus;
  // Deterministic subsampling by index stride keeps the retained subset
  // stable across runs.
  auto keep = [fraction](size_t index) {
    if (fraction >= 1.0) return true;
    const double position =
        static_cast<double>(index % 1000) / 1000.0;
    return position < fraction;
  };
  for (size_t s = 0; s < corpus.sentence_count(); ++s) {
    if (!keep(s)) continue;
    lm.AddSentence(corpus.sentence(s).tokens);
  }
  const auto& auxiliary = corpus.auxiliary_sentences();
  for (size_t s = 0; s < auxiliary.size(); ++s) {
    if (!keep(s)) continue;
    lm.AddSentence(auxiliary[s]);
  }
  lm.Finalize();
}

std::vector<TokenId> Pipeline::StopTokens() const {
  std::vector<TokenId> stops;
  for (const char* word :
       {"the", "is", "are", "a", "with", "and", "similar", "to", "page",
        ",", "."}) {
    const TokenId token = world_.corpus.tokens().Lookup(word);
    if (token != kInvalidTokenId) stops.push_back(token);
  }
  std::sort(stops.begin(), stops.end());
  stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
  return stops;
}

const EntityStore& Pipeline::weak_store() {
  if (weak_store_ == nullptr) {
    UW_SPAN("pipeline.weak_store");
    EncoderConfig weak_config = config_.encoder;
    weak_config.seed = config_.encoder.seed ^ 0x5151;
    weak_store_ = std::make_unique<EntityStore>(EntityStore::Build(
        world_.corpus, TrainEncoder(weak_config, config_.weak_encoder_train),
        dataset_.candidates, config_.store));
  }
  return *weak_store_;
}

const EntityStore& Pipeline::static_store() {
  if (static_store_ == nullptr) {
    UW_SPAN("pipeline.static_store");
    EncoderConfig static_config = config_.encoder;
    static_config.seed = config_.encoder.seed ^ 0x9292;
    EntityPredictionTrainConfig train = config_.weak_encoder_train;
    train.epochs = 1;
    train.learning_rate = 0.03f;
    train.seed = config_.weak_encoder_train.seed ^ 0x11;
    static_store_ = std::make_unique<EntityStore>(EntityStore::Build(
        world_.corpus, TrainEncoder(static_config, train),
        dataset_.candidates, config_.store));
  }
  return *static_store_;
}

const EntityStore& Pipeline::contrast_store() {
  if (contrast_store_ == nullptr) {
    UW_SPAN("pipeline.contrast_store");
    contrast_store_ = BuildContrastStore(config_.contrast, config_.miner);
  }
  return *contrast_store_;
}

std::unique_ptr<EntityStore> Pipeline::BuildContrastStore(
    const ContrastiveTrainConfig& train, const MinerConfig& miner) {
  // Mine training data with the base RetExpan recall stage + oracle.
  RetExpan base(store_.get(), &dataset_.candidates);
  const ContrastiveData data =
      MineContrastiveData(world_, dataset_, base, *oracle_, miner);
  // Tune a clone of the main encoder; alternate with entity prediction to
  // preserve the underlying semantics (paper appendix B).
  auto tuned = std::make_unique<ContextEncoder>(encoder_->Clone());
  for (int epoch = 0; epoch < train.epochs; ++epoch) {
    ContrastiveTrainConfig one_epoch = train;
    one_epoch.epochs = 1;
    one_epoch.seed = train.seed + static_cast<uint64_t>(epoch);
    TrainContrastive(world_.corpus, *tuned, data, one_epoch);
    EntityPredictionTrainConfig refresh = config_.encoder_train;
    refresh.epochs = 1;
    refresh.seed = config_.encoder_train.seed + 101 +
                   static_cast<uint64_t>(epoch);
    refresh.learning_rate = config_.encoder_train.min_learning_rate;
    TrainEntityPrediction(world_.corpus, *tuned, refresh);
  }
  return std::make_unique<EntityStore>(EntityStore::Build(
      world_.corpus, *tuned, dataset_.candidates, config_.store));
}

const EntityStore& Pipeline::ra_store(RaSource source) {
  const size_t index = static_cast<size_t>(source);
  UW_CHECK_LT(index, 4u);
  if (ra_stores_[index] == nullptr) {
    UW_SPAN("pipeline.ra_store");
    // Retrain a fresh encoder with the augmentation prefixes applied to
    // every training sentence, then extract representations with the same
    // prefixes (paper §5.1.3: "during both training and inference").
    const std::vector<std::vector<TokenId>> prefixes =
        BuildEntityPrefixes(world_, source);
    EncoderConfig ra_config = config_.encoder;
    ra_config.seed = config_.encoder.seed ^ (0x77AA + index);
    EntityPredictionTrainConfig train = config_.encoder_train;
    train.entity_prefixes = &prefixes;
    EntityStoreConfig store_config = config_.store;
    store_config.entity_prefixes = &prefixes;
    ra_stores_[index] = std::make_unique<EntityStore>(EntityStore::Build(
        world_.corpus, TrainEncoder(ra_config, train), dataset_.candidates,
        store_config));
  }
  return *ra_stores_[index];
}

const std::vector<SparseVec>& Pipeline::distributions() {
  if (distributions_ == nullptr) {
    UW_SPAN("pipeline.distributions");
    EntityStoreConfig config = config_.store;
    config.max_sentences_per_entity =
        std::min(config.max_sentences_per_entity, 3);
    config.distribution_temperature = 6.0f;
    distributions_ = std::make_unique<std::vector<SparseVec>>(
        BuildSparseDistributions(world_.corpus, *encoder_,
                                 dataset_.candidates, config,
                                 config_.distribution_top_k));
  }
  return *distributions_;
}

const IvfIndex& Pipeline::ann_index() {
  if (ann_index_ == nullptr) {
    UW_SPAN("pipeline.ann_index");
    // Keyed on the store's provenance plus the ANN config: a different
    // store, generator, encoder, or IVF knob is a different index.
    ann_index_ = std::make_unique<IvfIndex>(LoadOrBuild(
        "ann",
        CombineFingerprints({store_key_, FingerprintConfig(config_.ann)}),
        [this](const std::string& path) {
          UW_SPAN("cache.load_ann");
          return LoadAnnIndexSnapshot(path, config_.ann);
        },
        [this] { return IvfIndex::Build(*store_, config_.ann); },
        SaveAnnIndexSnapshot));
  }
  return *ann_index_;
}

std::unique_ptr<EntityStore> Pipeline::BuildEncoderStore(
    const EntityPredictionTrainConfig& train) {
  return std::make_unique<EntityStore>(EntityStore::Build(
      world_.corpus, TrainEncoder(config_.encoder, train),
      dataset_.candidates, config_.store));
}

std::unique_ptr<HybridLm> Pipeline::BuildLmVariant(
    const HybridLmConfig& config, double pretrain_fraction) const {
  return LoadOrTrainLm(config, pretrain_fraction);
}

std::unique_ptr<RetExpan> Pipeline::MakeRetExpan(RetExpanConfig config) {
  // Recall knobs: UW_ANN_ENABLE attaches the IVF first stage to the main
  // store's expander; UW_ANN_NPROBE widens/narrows its probe (explicit
  // config wins, matching the GenExpan budget knobs). The contrast/RA
  // variants rank with different stores, so they never get this index.
  const bool ann = AnnEnabledFromEnv();
  if (ann && config.ann_nprobe <= 0) {
    config.ann_nprobe = AnnNprobeFromEnv();
  }
  auto expander = std::make_unique<RetExpan>(
      store_.get(), &dataset_.candidates, config);
  if (ann) expander->SetAnnIndex(&ann_index());
  return expander;
}

std::unique_ptr<RetExpan> Pipeline::MakeRetExpanContrast(
    RetExpanConfig config) {
  return std::make_unique<RetExpan>(&contrast_store(),
                                    &dataset_.candidates, config,
                                    "RetExpan+Contrast");
}

std::unique_ptr<RetExpan> Pipeline::MakeRetExpanRa(RaSource source,
                                                   RetExpanConfig config) {
  return std::make_unique<RetExpan>(
      &ra_store(source), &dataset_.candidates, config,
      std::string("RetExpan+RA(") + RaSourceName(source) + ")");
}

std::unique_ptr<GenExpan> Pipeline::MakeGenExpan(GenExpanConfig config) {
  // Standing anytime budgets; explicit config values win over the env.
  if (config.time_budget_ms <= 0) {
    config.time_budget_ms = EnvInt("UW_GENEXPAN_TIME_BUDGET_MS", 0, 0);
  }
  if (config.max_expansions <= 0) {
    config.max_expansions = EnvInt("UW_GENEXPAN_MAX_EXPANSIONS", 0, 0);
  }
  std::string name = "GenExpan";
  if (config.cot != CotMode::kNone) {
    name += std::string("+CoT(") + CotModeName(config.cot) + ")";
  }
  if (config.retrieval_augmentation) {
    name += std::string("+RA(") + RaSourceName(config.ra_source) + ")";
  }
  if (!config.use_prefix_constraint) name += "-PrefixConstraint";
  return std::make_unique<GenExpan>(&world_, lm_.get(), trie_.get(),
                                    similarity_.get(), oracle_.get(),
                                    config, std::move(name));
}

std::unique_ptr<ProbExpan> Pipeline::MakeProbExpan(ProbExpanConfig config) {
  return std::make_unique<ProbExpan>(&distributions(),
                                     &dataset_.candidates, config);
}

std::unique_ptr<SetExpan> Pipeline::MakeSetExpan(SetExpanConfig config) {
  return std::make_unique<SetExpan>(&world_.corpus, &dataset_.candidates,
                                    config);
}

std::unique_ptr<CaSE> Pipeline::MakeCaSE(CaseConfig config) {
  return std::make_unique<CaSE>(&world_.corpus, &static_store(),
                                &dataset_.candidates, config);
}

std::unique_ptr<CgExpan> Pipeline::MakeCgExpan(CgExpanConfig config) {
  return std::make_unique<CgExpan>(&world_, &weak_store(),
                                   &lm_->association(),
                                   &dataset_.candidates, config);
}

std::unique_ptr<Gpt4Baseline> Pipeline::MakeGpt4Baseline() {
  return std::make_unique<Gpt4Baseline>(oracle_.get(), &dataset_);
}

std::unique_ptr<InteractionExpander> Pipeline::MakeInteraction(
    InteractionOrder order, InteractionConfig config) {
  return std::make_unique<InteractionExpander>(
      order, &world_, store_.get(), &dataset_.candidates, trie_.get(),
      lm_.get(), similarity_.get(), oracle_.get(), config);
}

}  // namespace ultrawiki
