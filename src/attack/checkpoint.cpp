#include "attack/checkpoint.hpp"

#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "util/durable_io.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace sma::attack {

namespace {

constexpr const char* kFrameKind = "sma-train-ckpt";
constexpr std::uint32_t kSchemaVersion = 1;

std::atomic<long> g_saves{0};
std::atomic<long> g_resumes{0};
std::atomic<long> g_corrupt_discards{0};

/// A history vector: u64 count, then the doubles' bit patterns, so
/// histories compare bit-equal across save/load.
void put_doubles(util::ByteWriter& out, const std::vector<double>& v) {
  out.u64(v.size()).bytes(v.data(), v.size() * sizeof(double));
}

std::vector<double> get_doubles(util::ByteReader& in, const char* what) {
  const std::uint64_t count = in.u64(what);
  const std::string_view raw = in.array(count, sizeof(double), what);
  std::vector<double> v(static_cast<std::size_t>(count));
  if (!raw.empty()) std::memcpy(v.data(), raw.data(), raw.size());
  return v;
}

}  // namespace

std::string encode_params(const std::vector<nn::Param>& params) {
  util::ByteWriter out;
  out.u64(params.size());
  for (const nn::Param& p : params) {
    out.u64(p.value->size())
        .bytes(p.value->data(), p.value->size() * sizeof(float));
  }
  return out.take();
}

void decode_params(const std::string& blob, std::vector<nn::Param>& params) {
  util::ByteReader in(blob);
  const std::uint64_t count = in.u64("parameter count");
  if (count != params.size()) {
    throw util::FrameError("checkpoint parameter count mismatch: blob has " +
                           std::to_string(count) + ", model has " +
                           std::to_string(params.size()));
  }
  // Validate the whole blob before touching any tensor, so a bad blob
  // leaves the model unchanged.
  std::vector<std::string_view> values(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::uint64_t size = in.u64(params[i].name.c_str());
    if (size != params[i].value->size()) {
      throw util::FrameError(
          "checkpoint size mismatch for " + params[i].name + ": blob has " +
          std::to_string(size) + " floats, model expects " +
          std::to_string(params[i].value->size()));
    }
    values[i] = in.bytes(size * sizeof(float), params[i].name.c_str());
  }
  in.expect_end("parameter blob");
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!values[i].empty()) {
      std::memcpy(params[i].value->data(), values[i].data(),
                  values[i].size());
    }
  }
}

std::string encode_checkpoint(const TrainCheckpoint& ckpt) {
  util::ByteWriter out;
  out.u64(ckpt.compat_digest)
      .i64(ckpt.epochs_done)
      .i64(ckpt.queries_seen)
      .u64(ckpt.rng.state)
      .u64(ckpt.rng.inc);
  put_doubles(out, ckpt.epoch_loss);
  put_doubles(out, ckpt.validation_ccr);
  out.str(ckpt.model_blob).str(ckpt.adam_blob);
  return out.take();
}

TrainCheckpoint decode_checkpoint(const std::string& payload) {
  util::ByteReader in(payload);
  TrainCheckpoint ckpt;
  ckpt.compat_digest = in.u64("compat digest");
  const std::int64_t epochs = in.i64("epoch counter");
  const std::int64_t queries = in.i64("query count");
  if (epochs < 0 || epochs > std::numeric_limits<int>::max() || queries < 0) {
    throw util::FrameError("checkpoint payload has out-of-range counters");
  }
  ckpt.epochs_done = static_cast<int>(epochs);
  ckpt.queries_seen = static_cast<long>(queries);
  ckpt.rng.state = in.u64("rng state");
  ckpt.rng.inc = in.u64("rng stream");
  ckpt.epoch_loss = get_doubles(in, "epoch losses");
  ckpt.validation_ccr = get_doubles(in, "validation history");
  ckpt.model_blob = in.str("model weights");
  ckpt.adam_blob = in.str("optimizer state");
  in.expect_end("checkpoint payload");
  return ckpt;
}

void save_checkpoint(const std::string& path, const TrainCheckpoint& ckpt) {
  // A crash here must leave the previous checkpoint file untouched.
  util::fault::point("checkpoint.save");
  util::write_frame_file(path, kFrameKind, kSchemaVersion,
                         encode_checkpoint(ckpt));
  g_saves.fetch_add(1, std::memory_order_relaxed);
  // A crash here must leave the NEW checkpoint valid (rename completed).
  util::fault::point("checkpoint.saved");
}

bool try_load_checkpoint(const std::string& path, std::uint64_t expect_digest,
                         TrainCheckpoint* out) {
  if (!util::file_exists(path)) return false;
  TrainCheckpoint ckpt;
  try {
    const std::string payload =
        util::read_frame_file(path, kFrameKind, kSchemaVersion);
    ckpt = decode_checkpoint(payload);
  } catch (const util::DurableIoError& e) {
    // Damaged or unreadable: discard and start fresh. FaultInjected is not
    // a DurableIoError, so simulated crashes propagate to the test harness.
    g_corrupt_discards.fetch_add(1, std::memory_order_relaxed);
    util::log_warn() << "discarding damaged checkpoint " << path << ": "
                     << e.what();
    return false;
  }
  if (ckpt.compat_digest != expect_digest) {
    g_corrupt_discards.fetch_add(1, std::memory_order_relaxed);
    util::log_warn() << "discarding checkpoint " << path
                     << ": run configuration changed (digest mismatch)";
    return false;
  }
  *out = std::move(ckpt);
  g_resumes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CheckpointStats checkpoint_stats() {
  CheckpointStats stats;
  stats.saves = g_saves.load(std::memory_order_relaxed);
  stats.resumes = g_resumes.load(std::memory_order_relaxed);
  stats.corrupt_discards = g_corrupt_discards.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace sma::attack
