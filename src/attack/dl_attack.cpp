#include "attack/dl_attack.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "attack/checkpoint.hpp"
#include "nn/train_step.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sma::attack {

namespace {

/// One labelled training query.
struct Ref {
  int design;
  int query;
};

}  // namespace

Selection select_one(nn::AttackNet& net, const QueryDataset& dataset,
                     std::size_t i, nn::QueryInput& input,
                     const nn::Tensor* embeddings) {
  const split::SinkQuery& query = dataset.query(i);
  Selection out;
  out.sink_fragment = query.sink_fragment;
  out.num_sinks = query.num_sinks;
  if (query.candidates.empty()) return out;
  // Scores live in the net's activation arena — read in place.
  int predicted = 0;
  if (embeddings != nullptr) {
    dataset.vectors_into(i, input.vec);
    predicted = nn::predict(
        net.head(input.vec, embeddings, dataset.pin_rows(i)));
  } else {
    dataset.input_into(i, input);
    predicted = nn::predict(net.forward(input));
  }
  out.chosen_source = query.candidates[predicted].source_fragment;
  out.correct = query.candidates[predicted].positive;
  return out;
}

nn::Tensor embed_pins(const std::vector<nn::AttackNet*>& nets,
                      const QueryDataset& dataset,
                      runtime::ThreadPool* pool) {
  const std::size_t pins = dataset.num_pins();
  SMA_TRACE_SPAN_V("attack", "embed_pins", pins);
  if (pins == 0) return nn::Tensor();
  const std::size_t h = static_cast<std::size_t>(nets.front()->config().hidden);
  std::size_t batch = 1;
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    batch = std::max(batch, dataset.query(i).candidates.size() + 1);
  }
  nn::Tensor embeddings({static_cast<int>(pins), static_cast<int>(h)});
  const std::size_t slice = (pins + nets.size() - 1) / nets.size();
  runtime::TaskGroup group(pool);
  for (std::size_t c = 0; c < nets.size(); ++c) {
    group.run([c, slice, pins, batch, h, &nets, &dataset, &embeddings] {
      nn::Tensor images;  // reused across this net's batches
      const std::size_t hi = std::min(pins, (c + 1) * slice);
      for (std::size_t lo = c * slice; lo < hi; lo += batch) {
        const std::size_t count = std::min(batch, hi - lo);
        dataset.pin_images_into(lo, count, images);
        std::memcpy(embeddings.data() + lo * h, nets[c]->trunk(images).data(),
                    sizeof(float) * count * h);
      }
    });
  }
  group.wait();
  return embeddings;
}

DlAttack::DlAttack(const nn::NetConfig& net_config)
    : net_(net_config), replicas_(std::make_unique<ReplicaSet>()) {}

DlAttack::DlAttack(nn::AttackNet net)
    : net_(std::move(net)), replicas_(std::make_unique<ReplicaSet>()) {}

TrainStats DlAttack::train(const std::vector<QueryDataset>& training,
                           const std::vector<QueryDataset>& validation,
                           const TrainConfig& config,
                           runtime::ThreadPool* pool) {
  SMA_TRACE_SPAN_V("train", "train", config.epochs);
  util::Timer timer;
  TrainStats stats;
  util::Pcg32 rng(config.seed, 0x7a13);

  nn::TrainStep engine(net_.params(), config.adam);
  const bool two_class = net_.config().two_class;
  const int lanes = std::max(1, config.batch_size);

  // Index all trainable queries (those whose candidate list contains the
  // positive VPP — Eq. 6 needs a labelled target).
  std::vector<std::vector<Ref>> per_design(training.size());
  for (std::size_t d = 0; d < training.size(); ++d) {
    for (std::size_t q = 0; q < training[d].num_queries(); ++q) {
      if (training[d].target(q) >= 0 &&
          !training[d].query(q).candidates.empty()) {
        per_design[d].push_back({static_cast<int>(d), static_cast<int>(q)});
      }
    }
  }

  // Per-epoch sample: subsample each design's queries, then shuffle the
  // combined order so designs interleave. Factored out because resume
  // replays it (below): the shuffles both mutate `per_design` cumulatively
  // and advance `rng`, so a resumed run must re-derive the completed
  // epochs' sampling to put both back in the exact mid-run state.
  const auto build_epoch_order = [&]() {
    std::vector<Ref> order;
    for (auto& refs : per_design) {
      util::shuffle(refs, rng);
      std::size_t take = config.max_queries_per_design > 0
                             ? std::min<std::size_t>(
                                   refs.size(),
                                   static_cast<std::size_t>(
                                       config.max_queries_per_design))
                             : refs.size();
      order.insert(order.end(), refs.begin(), refs.begin() + take);
    }
    util::shuffle(order, rng);
    return order;
  };

  // Master parameters, captured once: the checkpoint target and (on
  // resume) the restore target. Restoring IN PLACE into these tensors —
  // before any lane replica exists — means full clones copy the restored
  // weights at creation and shared-weight replicas read them by
  // construction.
  std::vector<nn::Param> ckpt_params = net_.params();
  const bool checkpointing =
      config.checkpoint_every > 0 && !config.checkpoint_path.empty();
  std::uint64_t ckpt_digest = 0;
  int start_epoch = 0;
  if (checkpointing) {
    // Fingerprint of everything that shapes the training stream: the
    // Adam schedule, the sampling/batching hyperparameters, the seed,
    // the loss head, the dataset shape, and the model's parameter sizes.
    // A checkpoint whose digest differs resumes nothing.
    util::ContentHash compat;
    compat.add(config.adam.lr)
        .add(config.adam.beta1)
        .add(config.adam.beta2)
        .add(config.adam.eps)
        .add(config.adam.decay)
        .add(config.decay_every)
        .add(config.max_queries_per_design)
        .add(config.batch_size)
        .add(config.seed)
        .add(two_class)
        .add(per_design.size());
    for (const auto& refs : per_design) compat.add(refs.size());
    compat.add(ckpt_params.size());
    for (const nn::Param& p : ckpt_params) compat.add(p.value->size());
    ckpt_digest = compat.digest();

    TrainCheckpoint ckpt;
    if (try_load_checkpoint(config.checkpoint_path, ckpt_digest, &ckpt) &&
        ckpt.epochs_done > 0 && ckpt.epochs_done <= config.epochs) {
      // A checkpoint that passes the frame checksum and digest but still
      // fails to decode (should be impossible; defends the invariant
      // anyway) must not leave weights and optimizer mixed. Both decoders
      // validate before they write, so only the weights, decoded first,
      // can need restoring.
      const std::string fresh_weights = encode_params(ckpt_params);
      try {
        decode_params(ckpt.model_blob, ckpt_params);
        util::ByteReader adam_in(ckpt.adam_blob);
        engine.optimizer().deserialize(adam_in);
        start_epoch = ckpt.epochs_done;
      } catch (const std::exception& e) {
        util::log_warn() << "checkpoint " << config.checkpoint_path
                         << " failed to decode, starting fresh: " << e.what();
        decode_params(fresh_weights, ckpt_params);
        start_epoch = 0;
      }
      if (start_epoch > 0) {
        stats.epoch_loss = ckpt.epoch_loss;
        stats.validation_ccr = ckpt.validation_ccr;
        stats.queries_seen = ckpt.queries_seen;
        stats.resumed_from_epoch = start_epoch;
        // Keep the per-epoch vectors epoch-indexable on resume.
        stats.arena_allocs_per_epoch.assign(
            static_cast<std::size_t>(start_epoch), 0);
        // Replay the completed epochs' sampling (cheap: shuffles only).
        for (int e = 0; e < start_epoch; ++e) build_epoch_order();
        // The replay reproduces the checkpointed RNG state exactly;
        // restoring is belt-and-braces against future drift.
        rng.restore_state(ckpt.rng);
        util::log_info() << "resuming training from checkpoint "
                         << config.checkpoint_path << " at epoch "
                         << start_epoch;
      }
    }
  }

  // Lane replicas: identical weights, private gradients and activation
  // caches, one query per lane per step. The lane count is fixed by the
  // config — never by the pool — so the reduction order in TrainStep is
  // thread-count-invariant; with no pool the TaskGroup below runs the
  // lanes inline, in lane order. Each lane is a shared-weight replica
  // (clone_shared): Adam updates land in the one weight copy every lane
  // reads, so nothing is ever copied back to the lanes.
  std::vector<nn::AttackNet> lane_nets;
  std::vector<std::vector<nn::Param>> lane_params;
  lane_nets.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) lane_nets.push_back(net_.clone_shared());
  for (nn::AttackNet& lane : lane_nets) lane_params.push_back(lane.params());
  engine.attach_lanes(lane_params);

  // Reusable input-assembly buffers, one per lane replica. input_into
  // resizes them in place, so steady-state epochs assemble every query
  // without heap traffic. Each buffer is only ever touched by its own
  // lane's task — race-free under the pool.
  std::vector<nn::QueryInput> lane_inputs(lane_nets.size());

  // Activation-arena accounting: every lane replica owns one arena for
  // its lifetime (the master net never runs here). Epoch deltas expose
  // the warm-up/steady-state split: the explicit warm-up below lands in
  // the first epoch's delta, and every later delta must be 0 —
  // bench_train and CI gate on it. (Validation replicas have their own
  // arenas; see inference_arena_stats().)
  const auto arena_allocs = [&]() {
    long total = 0;
    for (const nn::AttackNet& lane : lane_nets) {
      total += lane.arena().stats().allocs;
    }
    return total;
  };
  long prev_allocs = arena_allocs();

  // Arena warm-up: run every training net once over the globally largest
  // trainable query (forward + a zero-gradient backward), then discard
  // the still-zero gradients. Every activation/staging buffer is thereby
  // grown to its high-water size up front, so ALL epochs run alloc-free —
  // without this, a pooled lane would only warm to the shapes its own
  // shuffle slots happen to draw, and every reshuffle (or a subsampled
  // epoch introducing a larger query late) could grow an arena mid-run.
  // Model bytes are untouched: forward mutates no weights, backward with
  // a zero upstream gradient adds exact zeros to zero gradients, and the
  // explicit re-zeroing pins the bytes regardless.
  {
    const Ref* largest = nullptr;
    std::size_t most_candidates = 0;
    for (const auto& refs : per_design) {
      for (const Ref& ref : refs) {
        const std::size_t n =
            training[ref.design].query(ref.query).candidates.size();
        if (n > most_candidates) {
          most_candidates = n;
          largest = &ref;
        }
      }
    }
    if (largest != nullptr) {
      // Warm each lane's input-assembly buffer along with its net.
      for (std::size_t l = 0; l < lane_nets.size(); ++l) {
        training[largest->design].input_into(largest->query, lane_inputs[l]);
        const nn::Tensor& scores = lane_nets[l].forward(lane_inputs[l]);
        nn::Tensor zero_grad(scores.shape());
        lane_nets[l].backward(zero_grad);
        for (const nn::Param& p : lane_params[l]) p.grad->fill(0.0f);
      }
    }
  }

  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    SMA_TRACE_SPAN_V("train", "epoch", epoch);
    SMA_COUNT("train.epochs");
    // On resume the decays of epochs < start_epoch are already baked into
    // the deserialized optimizer's learning rate — this condition only
    // fires for the epochs this call actually runs.
    if (epoch > 0 && config.decay_every > 0 &&
        epoch % config.decay_every == 0) {
      engine.decay_lr();
    }

    std::vector<Ref> order = build_epoch_order();

    double epoch_loss = 0.0;
    std::vector<double> lane_loss(static_cast<std::size_t>(lanes), 0.0);
    for (std::size_t base = 0; base < order.size();
         base += static_cast<std::size_t>(lanes)) {
      const int active = static_cast<int>(
          std::min<std::size_t>(lanes, order.size() - base));

      // Forward/backward one query per lane, concurrently.
      runtime::TaskGroup group(pool);
      for (int l = 0; l < active; ++l) {
        group.run([l, base, two_class, &order, &training, &lane_nets,
                   &lane_inputs, &lane_loss] {
          const Ref& ref = order[base + static_cast<std::size_t>(l)];
          const QueryDataset& dataset = training[ref.design];
          nn::QueryInput& input = lane_inputs[l];
          dataset.input_into(ref.query, input);
          nn::AttackNet& net = lane_nets[l];
          const nn::Tensor& scores = net.forward(input);
          nn::LossResult loss =
              two_class
                  ? nn::two_class_loss(scores, dataset.target(ref.query))
                  : nn::softmax_regression_loss(scores,
                                                dataset.target(ref.query));
          net.backward(loss.grad);
          lane_loss[l] = loss.loss;
        });
      }
      group.wait();

      // One fused reduce+Adam pass; lanes read the master's weight
      // tensors directly.
      engine.step(active, pool);

      for (int l = 0; l < active; ++l) epoch_loss += lane_loss[l];
      stats.queries_seen += active;
    }
    stats.epoch_loss.push_back(
        order.empty() ? 0.0 : epoch_loss / static_cast<double>(order.size()));
    const long allocs_now = arena_allocs();
    stats.arena_allocs_per_epoch.push_back(allocs_now - prev_allocs);
    prev_allocs = allocs_now;

    if (config.validate_every > 0 && !validation.empty() &&
        (epoch + 1) % config.validate_every == 0) {
      long total = 0;
      long correct = 0;
      for (const QueryDataset& dataset : validation) {
        AttackResult result = attack(dataset, pool);
        for (const Selection& s : result.selections) {
          total += s.num_sinks;
          if (s.correct) correct += s.num_sinks;
        }
      }
      stats.validation_ccr.push_back(
          total > 0 ? static_cast<double>(correct) / total : 0.0);
      util::log_info() << "epoch " << epoch + 1 << ": loss "
                       << stats.epoch_loss.back() << ", val CCR "
                       << stats.validation_ccr.back();
    } else {
      util::log_debug() << "epoch " << epoch + 1 << ": loss "
                        << stats.epoch_loss.back();
    }

    if (checkpointing && (epoch + 1) % config.checkpoint_every == 0) {
      TrainCheckpoint ckpt;
      ckpt.compat_digest = ckpt_digest;
      ckpt.epochs_done = epoch + 1;
      ckpt.queries_seen = stats.queries_seen;
      ckpt.epoch_loss = stats.epoch_loss;
      ckpt.validation_ccr = stats.validation_ccr;
      ckpt.rng = rng.save_state();
      ckpt.model_blob = encode_params(ckpt_params);
      util::ByteWriter adam_out;
      engine.optimizer().serialize(adam_out);
      ckpt.adam_blob = adam_out.take();
      try {
        save_checkpoint(config.checkpoint_path, ckpt);
        ++stats.checkpoints_saved;
        SMA_COUNT("train.checkpoints");
      } catch (const util::DurableIoError& e) {
        // Best-effort durability: a failing disk must not kill the run —
        // the previous checkpoint (if any) is still intact thanks to the
        // atomic replace. FaultInjected is not caught here: a simulated
        // crash must crash.
        util::log_warn() << "checkpoint save failed (training continues): "
                         << e.what();
      }
    }
  }
  for (const nn::AttackNet& lane : lane_nets) {
    stats.arena_bytes_pinned += lane.arena().stats().bytes_pinned;
  }
  stats.seconds = timer.seconds();
  return stats;
}

AttackResult DlAttack::attack(const QueryDataset& dataset,
                              runtime::ThreadPool* pool) {
  SMA_TRACE_SPAN_V("attack", "attack", dataset.num_queries());
  SMA_COUNT("attack.calls");
  util::Timer timer;
  AttackResult result;
  const nn::NetConfig& config = net_.config();
  result.attack_name = config.use_images ? "dl(vec+img)" : "dl(vec)";
  if (config.use_images && dataset.image_channels() != config.image_channels) {
    throw std::invalid_argument(
        "DlAttack::attack: the net reads " +
        std::to_string(config.image_channels) +
        "-channel pin images, the dataset holds " +
        std::to_string(dataset.image_channels()));
  }
  const std::size_t n = dataset.num_queries();
  if (n == 0) return result;
  result.selections.assign(n, Selection{});

  // Workers run pinned shared-weight replicas leased from the ReplicaSet —
  // no per-call clone, no weight copies — and concurrent attack() calls
  // (e.g. parallel per-design evaluation) lease disjoint replicas, so
  // they stay race-free. Without a pool one chunk covers every query.
  std::size_t num_chunks = std::min(n, runtime::num_workers(pool));
  // A bounded replica set caps the fan-out: asking for more replicas than
  // the bound can never be satisfied.
  const std::size_t cap = replicas_->max_replicas();
  if (cap > 0) num_chunks = std::min(num_chunks, cap);
  ReplicaLease lease = replicas_->lease(num_chunks, net_);

  // Image nets first embed every pin of the dataset once. Built fresh
  // per call: the weights may change between calls (validation during
  // training).
  nn::Tensor embeddings;
  if (config.use_images) embeddings = embed_pins(lease.nets(), dataset, pool);

  const nn::Tensor* table = config.use_images ? &embeddings : nullptr;
  const std::size_t chunk = (n + num_chunks - 1) / num_chunks;
  runtime::TaskGroup group(pool);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    group.run([c, chunk, n, table, &lease, &dataset, &result] {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      SMA_TRACE_SPAN_V("attack", "chunk", hi - lo);
      nn::QueryInput input;  // reused across this worker's chunk
      for (std::size_t i = lo; i < hi; ++i) {
        result.selections[i] =
            select_one(*lease.nets()[c], dataset, i, input, table);
      }
    });
  }
  group.wait();
  result.ccr = compute_ccr(result.selections);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace sma::attack
