// The paper's neural network (Fig. 4 / Table 2).
//
// Two input branches are fused: a vector branch (fc1 + four FC-ResNet
// blocks over 27 per-VPP features) and an image branch (a 12-layer conv
// trunk with weight sharing across the n source images and the sink
// image, global average pooling, two FC layers, and a sink/source fusion
// FC). The merged trunk (one FC, three FC-ResNet blocks, fc6, fc7) emits
// one score per candidate VPP — or two scores per candidate when
// configured as the two-class ablation baseline.
//
// The pass splits at the image embeddings. `trunk` maps pin images to
// one embedding row each (conv stack, GAP, fc3, fc4); it is image-local,
// so a pin's row depends only on the weights and that pin's image.
// `head` scores one sink-fragment query — all n candidate VPPs of that
// sink, the paper's batch definition — from its vector features and the
// embedding rows of its n source pins and its sink pin (vector branch,
// sink/source fusion, fc5_img, merged trunk, fc6, fc7). `forward` is
// trunk then head over one query's n + 1 images: training and the
// serving loop run it. DlAttack::attack embeds each distinct pin of a
// dataset once with `trunk` and scores every query with `head` alone;
// both call shapes produce the same score bytes (see `head`).
//
// Activation-layout contract: the image branch binds ONE layout across
// the conv trunk — the dataset input and the GlobalAvgPool output are
// the only row-major seams, and everything between them travels in the
// conv pipeline's channel-major layout (each tensor's Layout tag is
// authoritative). The vector branch, the fusion/merge slots, and the fc
// head are row-major throughout. See nn/layers.hpp for the per-layer
// contract and nn/tensor.hpp for the tag semantics.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/arena.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace sma::nn {

/// A model stream failed validation at load: bad magic, a header field
/// outside its sane range (hostile or garbage input must never reach
/// tensor allocation as a bad_alloc), a shape mismatch, or truncation.
/// Derives std::runtime_error, so pre-existing catch sites keep working.
class ModelLoadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct NetConfig {
  int vector_dim = 27;
  int hidden = 128;            ///< width of the FC trunks
  int vector_res_blocks = 4;   ///< paper: fc2 [128x128]x12
  int merged_res_blocks = 3;   ///< paper: fc2 [128x128]x9
  bool use_images = true;
  int image_channels = 3;      ///< one gray channel per scale
  std::array<int, 4> conv_channels = {16, 32, 64, 128};
  int image_fc = 256;          ///< fc3 width
  int fc6_width = 32;
  bool two_class = false;      ///< ablation head (Eq. 3) instead of Eq. 6
  std::uint64_t seed = 42;

  /// The exact Table-2 configuration.
  static NetConfig paper();
  /// Reduced conv widths for single-core CPU training; same topology.
  static NetConfig fast();
};

/// One query: n candidate VPPs of one sink fragment.
struct QueryInput {
  /// [n, vector_dim] vector features.
  Tensor vec;
  /// [n + 1, channels, size, size]: n source-pin images then the sink-pin
  /// image last. Left empty when the net runs vector-only.
  Tensor images;
};

class AttackNet {
 public:
  explicit AttackNet(const NetConfig& config);

  const NetConfig& config() const { return config_; }

  /// Scores [n] (or [n, 2] in two-class mode): `trunk` over the query's
  /// n + 1 images, then `head` over its rows in image order. The
  /// returned reference points into this network's activation arena: it
  /// stays valid (and unchanged) until the next forward or head call on
  /// this same net. Callers that need the scores longer must copy.
  const Tensor& forward(const QueryInput& input);

  /// The image trunk: pin images [rows, channels, size, size] to
  /// embeddings [rows, hidden], one row per image. Row r depends only on
  /// the weights and image r — never on which or how many other images
  /// share the call (the GEMM k-chains do not depend on the row count,
  /// nn/gemm.hpp) — so a pin embedded in any batch yields the same
  /// bytes. The reference points into this net's arena and stays valid
  /// until the next trunk or forward call. Image nets only.
  const Tensor& trunk(const Tensor& images);

  /// The head: scores for one query from its vector features [n,
  /// vector_dim] and, on image nets, `rows`: n + 1 row indices into
  /// `embeddings` ([*, hidden] trunk output) naming the n source pins and
  /// then the sink pin (the order of QueryInput::images). The fused rows
  /// are byte copies of those embedding rows, so the scores equal
  /// `forward`'s whenever the rows equal the trunk's output for the
  /// query's images. Vector-only nets ignore `embeddings` and `rows`
  /// (pass nullptr). Throws std::out_of_range for a row outside the
  /// table. Same lifetime as `forward`'s result.
  const Tensor& head(const Tensor& vec, const Tensor* embeddings,
                     const int* rows);

  /// Backpropagate d(loss)/d(scores) of the last `forward`; accumulates
  /// parameter gradients. Only valid after `forward` (training never
  /// calls `head` on its own).
  void backward(const Tensor& dscores);

  /// This network's activation arena (stats: bytes pinned, allocations).
  /// Every net — master, gradient lane, pinned inference replica — owns
  /// exactly one arena for its lifetime; after a warm-up query at the
  /// largest shape, `arena().stats().allocs` stops growing: the
  /// forward/backward hot path performs zero heap allocations per query.
  const Arena& arena() const { return *arena_; }

  std::vector<Param> params();
  std::size_t num_parameters();

  /// Binary serialization (config + weights). `save` verifies stream
  /// health after writing and throws std::runtime_error on any failure —
  /// a silent partial write would leave a truncated model file that only
  /// fails (confusingly) at load time. `load` validates every header
  /// field against sane bounds (and, on seekable streams, tensor sizes
  /// against the bytes actually remaining) *before* allocating, so a
  /// truncated or hostile stream throws ModelLoadError instead of
  /// exhausting memory or materializing garbage tensors.
  void save(std::ostream& out);
  static AttackNet load(std::istream& in);

  /// A replica whose layers *read this net's weight tensors* instead of
  /// owning copies (gradients and activation caches stay private, private
  /// weight storage is freed). A fleet of shared replicas carries one
  /// weight copy total: gradient lanes see Adam updates without any
  /// broadcast, and pinned inference replicas (attack/replica_set.hpp)
  /// track the master with zero synchronization. Constraints: this master
  /// must outlive the replica (moving the master is safe — layer objects
  /// live behind stable heap storage), its weights must not be mutated
  /// while a replica is mid-forward/backward, and a shared replica's
  /// `params()`/`save()` see empty value tensors — it is never the
  /// optimizer's target and never serialized.
  AttackNet clone_shared();

 private:
  NetConfig config_;

  /// Per-network activation arena (heap-allocated so the net stays
  /// movable: layers cache the arena's address). Owns every layer's
  /// output/staging slot plus the branch-fusion slots below.
  std::unique_ptr<Arena> arena_;

  // Vector branch. All hidden layers fuse their LeakyReLU into the GEMM
  // epilogue (Act::kLeakyReLU); only fc7 emits raw scores.
  std::unique_ptr<Linear> fc1_;
  std::vector<ResBlock> vec_blocks_;

  // Image branch (shared trunk).
  std::vector<Conv2d> convs_;
  GlobalAvgPool pool_;
  std::unique_ptr<Linear> fc3_;
  std::unique_ptr<Linear> fc4_;
  std::unique_ptr<Linear> fc5_img_;

  // Merged trunk.
  std::unique_ptr<Linear> fc5_merged_;
  std::vector<ResBlock> merged_blocks_;
  std::unique_ptr<Linear> fc6_;
  std::unique_ptr<Linear> fc7_;

  // Branch-fusion arena slots (see forward/backward): fused and merged_in
  // are fully overwritten each forward; dv/dimg are fully overwritten
  // each backward; demb accumulates into its sink row and is acquired
  // zero-filled.
  Arena::Slot fused_slot_ = 0;
  Arena::Slot merged_slot_ = 0;
  Arena::Slot dv_slot_ = 0;
  Arena::Slot dimg_slot_ = 0;
  Arena::Slot demb_slot_ = 0;

  /// Row indices 0..n of forward's own trunk output (grow-only).
  std::vector<int> image_rows_;

  // Cached batch size for backward.
  int n_ = 0;
};

}  // namespace sma::nn
