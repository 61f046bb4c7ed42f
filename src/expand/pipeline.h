#ifndef ULTRAWIKI_EXPAND_PIPELINE_H_
#define ULTRAWIKI_EXPAND_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "baselines/case.h"
#include "baselines/cgexpan.h"
#include "baselines/gpt4_baseline.h"
#include "baselines/probexpan.h"
#include "baselines/setexpan.h"
#include "common/status.h"
#include "dataset/dataset.h"
#include "embedding/contrastive.h"
#include "embedding/encoder.h"
#include "embedding/entity_store.h"
#include "embedding/trainer.h"
#include "expand/contrastive_miner.h"
#include "expand/genexpan.h"
#include "expand/interaction.h"
#include "expand/retexpan.h"
#include "expand/retrieval_augmentation.h"
#include "llm_oracle/oracle.h"
#include "lm/hybrid_lm.h"
#include "lm/prefix_trie.h"
#include "lm/similarity.h"

namespace ultrawiki {

/// End-to-end configuration: corpus generation, dataset construction,
/// encoder/LM training, oracle noise. `Bench()` is the default profile
/// every benchmark binary uses; `Tiny()` keeps test suites fast.
struct PipelineConfig {
  GeneratorConfig generator;
  DatasetConfig dataset;
  EncoderConfig encoder;
  /// Entity-prediction training of the main encoder (RetExpan et al.).
  EntityPredictionTrainConfig encoder_train;
  /// Short training for the "pretrained but not task-tuned" encoder the
  /// pre-LLM baselines (CaSE, CGExpan) rank with.
  EntityPredictionTrainConfig weak_encoder_train;
  HybridLmConfig lm;
  /// Fraction of the corpus the LM sees. 1.0 = further-pretrained on the
  /// full corpus; the "- Further pretrain" ablation uses a small fraction
  /// (LLaMA's residual world knowledge without corpus pretraining).
  double lm_pretrain_fraction = 1.0;
  OracleConfig oracle;
  EntityStoreConfig store;
  /// Top-k kept per sparse distribution row (ProbExpan representation).
  int distribution_top_k = 48;
  ContrastiveTrainConfig contrast;
  MinerConfig miner;
  /// IVF first stage over the main store (ann_index()). Off by default in
  /// expanders — MakeRetExpan only attaches it under UW_ANN_ENABLE — but
  /// the index itself can always be built (and is snapshot-cached keyed on
  /// the store provenance plus this config).
  IvfConfig ann;

  static PipelineConfig Bench();
  static PipelineConfig Tiny();
};

/// Owns the generated world, the constructed dataset, and every trained
/// substrate, and hands out expander instances wired to them. All lazily
/// built pieces are cached; everything is deterministic in the configured
/// seeds.
///
/// A Pipeline never moves: substrates such as similarity() hold pointers
/// into world(). Build returns a prvalue, so callers initialise from it in
/// place (`Pipeline p = Pipeline::Build(c);`,
/// `new Pipeline(Pipeline::Build(c))`).
class Pipeline {
 public:
  static Pipeline Build(const PipelineConfig& config);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  const PipelineConfig& config() const { return config_; }
  const GeneratedWorld& world() const { return world_; }
  const UltraWikiDataset& dataset() const { return dataset_; }
  const std::vector<EntityId>& candidates() const {
    return dataset_.candidates;
  }
  const LlmOracle& oracle() const { return *oracle_; }
  const ContextEncoder& encoder() const { return *encoder_; }
  const EntityStore& store() const { return *store_; }
  const EntityStore& weak_store();
  /// Even weaker pre-neural store (word2vec-era distributed
  /// representations) used by CaSE's distributed channel.
  const EntityStore& static_store();
  const HybridLm& lm() const { return *lm_; }
  const PrefixTrie& trie() const { return *trie_; }
  const LmEntitySimilarity& similarity() const { return *similarity_; }

  // --- Cached strategy substrates. ---

  /// Store from the contrastively tuned encoder (+Contrast), mined with
  /// the default miner/training configs.
  const EntityStore& contrast_store();

  /// Store from an encoder retrained with the given augmentation prefixes
  /// (+RA). Cached per source.
  const EntityStore& ra_store(RaSource source);

  /// Sparse distribution representations (ProbExpan).
  const std::vector<SparseVec>& distributions();

  /// IVF-Flat first stage over the main store (config().ann), built
  /// lazily and cached in the artifact cache keyed on the store's
  /// provenance + the ANN config. MakeRetExpan attaches it when
  /// UW_ANN_ENABLE is set; callers can also attach it explicitly via
  /// RetExpan::SetAnnIndex.
  const IvfIndex& ann_index();

  // --- Custom (uncached) builds for ablations and sweeps. ---

  /// Contrastively tunes a clone of the main encoder with explicit
  /// configs and returns its store (caller owns).
  std::unique_ptr<EntityStore> BuildContrastStore(
      const ContrastiveTrainConfig& train, const MinerConfig& miner);

  /// Trains a fresh encoder with explicit entity-prediction config (e.g.
  /// a different label smoothing η) and returns its store (caller owns).
  std::unique_ptr<EntityStore> BuildEncoderStore(
      const EntityPredictionTrainConfig& train);

  /// An LM variant (Fig. 8 scaling, the further-pretraining ablation),
  /// loaded from the artifact cache or trained and stored there.
  std::unique_ptr<HybridLm> BuildLmVariant(const HybridLmConfig& config,
                                           double pretrain_fraction) const;

  // --- Expander factories (returned objects reference this pipeline and
  // must not outlive it). ---
  std::unique_ptr<RetExpan> MakeRetExpan(RetExpanConfig config = {});
  std::unique_ptr<RetExpan> MakeRetExpanContrast(RetExpanConfig config = {});
  std::unique_ptr<RetExpan> MakeRetExpanRa(
      RaSource source = RaSource::kIntroduction, RetExpanConfig config = {});
  std::unique_ptr<GenExpan> MakeGenExpan(GenExpanConfig config = {});
  std::unique_ptr<ProbExpan> MakeProbExpan(ProbExpanConfig config = {});
  std::unique_ptr<SetExpan> MakeSetExpan(SetExpanConfig config = {});
  std::unique_ptr<CaSE> MakeCaSE(CaseConfig config = {});
  std::unique_ptr<CgExpan> MakeCgExpan(CgExpanConfig config = {});
  std::unique_ptr<Gpt4Baseline> MakeGpt4Baseline();
  std::unique_ptr<InteractionExpander> MakeInteraction(
      InteractionOrder order, InteractionConfig config = {});

 private:
  /// Builds every substrate (the body of Build).
  explicit Pipeline(const PipelineConfig& config);

  /// A fresh encoder with SIF token weights, trained by entity prediction
  /// over the corpus.
  ContextEncoder TrainEncoder(const EncoderConfig& encoder,
                              const EntityPredictionTrainConfig& train) const;
  /// The LM for `config` pretrained on `fraction` of the corpus: restored
  /// from the artifact cache ("lm") or trained, finalized and stored.
  std::unique_ptr<HybridLm> LoadOrTrainLm(const HybridLmConfig& config,
                                          double fraction) const;
  void TrainLmOn(HybridLm& lm, double fraction) const;
  /// The association channel's stop tokens, ascending.
  std::vector<TokenId> StopTokens() const;

  PipelineConfig config_;
  GeneratedWorld world_;
  UltraWikiDataset dataset_;
  std::unique_ptr<LlmOracle> oracle_;
  std::unique_ptr<ContextEncoder> encoder_;
  std::unique_ptr<EntityStore> store_;
  std::unique_ptr<EntityStore> weak_store_;
  std::unique_ptr<EntityStore> static_store_;
  std::unique_ptr<HybridLm> lm_;
  std::unique_ptr<PrefixTrie> trie_;
  std::unique_ptr<LmEntitySimilarity> similarity_;
  std::unique_ptr<EntityStore> contrast_store_;
  std::unique_ptr<EntityStore> ra_stores_[4];
  std::unique_ptr<std::vector<SparseVec>> distributions_;
  std::unique_ptr<IvfIndex> ann_index_;
  /// Cache key of the main store (0 = unknown provenance, derived
  /// artifacts like the ANN index are then not cached).
  uint64_t store_key_ = 0;
};

}  // namespace ultrawiki

#endif  // ULTRAWIKI_EXPAND_PIPELINE_H_
