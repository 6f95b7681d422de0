// Crash-safe file persistence: atomic replace, a checksummed frame, and
// the one byte codec every persisted payload is written and read with.
//
// Everything the repo persists across process lifetimes (training
// checkpoints, the on-disk split cache, experiment work units) goes
// through this layer, which gives three guarantees:
//
//  1. Atomic visibility. `atomic_write_file` writes to a temp file in the
//     target directory, flushes it to stable storage (fsync), renames it
//     over the destination, and fsyncs the directory. A crash at any
//     instant leaves either the complete old file or the complete new
//     file — never a torn one — so "the previous checkpoint stays valid"
//     holds at every injection point of the fault harness (util/fault.hpp).
//
//  2. Detection at load. Payloads are wrapped in a framed container —
//     magic, kind tag, schema version, payload length, FNV-1a checksum —
//     so a file that was torn or corrupted anyway (non-atomic filesystem,
//     bit rot, a fault-injected short_write/corrupt) is rejected with a
//     typed error at `frame_decode` time, never silently consumed.
//
//  3. Hostile payloads are typed errors. Payloads are encoded with
//     ByteWriter and decoded with ByteReader, which checks every read
//     against the bytes left and every decoder's end, so a payload that
//     passes the checksum but is malformed (a foreign writer, a bug, a
//     crafted file) throws FrameError instead of reading out of bounds,
//     allocating a claimed length, or loading with bytes left over.
//
// Fields are fixed width in host byte order; doubles are stored as their
// bit pattern, so they round-trip bit-equal. `str` is a u64 length and
// the bytes. The payload layouts, field by field:
//
//   frame        u32 magic "SMAF" | u32 container version 1 |
//                u32 kind length | kind | u32 schema version |
//                str payload | u64 FNV-1a(kind, schema version, payload)
//   checkpoint   u64 compat digest | i64 epochs done | i64 queries seen |
//   (kind sma-train-ckpt, v1)
//                u64 rng state | u64 rng stream |
//                u64 n | n f64 epoch losses | u64 n | n f64 validation ccrs |
//                str params blob | str Adam blob
//   params blob  u64 parameter count | per parameter: u64 n | n f32 values
//   Adam blob    f64 learning rate | i64 step | u64 parameter count |
//                per parameter: u64 n | n f32 first moment |
//                n f32 second moment
//   cache entry  u64 key | i64 final overflow | i64 fallback routes |
//   (kind sma-design-cache, v1)
//                str DEF text
//   Table-3 unit u64 run digest | u64 slot | str design | i64 sink count |
//   (kind sma-work-unit, v1)
//                i64 source count | u64 flags (1 flow timed out,
//                2 scaled down) | f64 flow ccr | f64 flow seconds |
//                f64 dl ccr | f64 dl seconds | f64 hit rate
//   Figure-5 unit u64 run digest | u64 slot | str setting | f64 avg ccr |
//                f64 avg inference seconds
//
// Errors are typed so callers can distinguish "this file is damaged,
// recompute it" (FrameError) from "the storage itself is failing"
// (IoError); both derive from DurableIoError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace sma::util {

/// Base of every durable-IO failure.
class DurableIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The bytes are not a valid frame or payload: bad magic, wrong kind,
/// unsupported version, truncation, checksum mismatch, a malformed field
/// or trailing bytes. The file is damaged or foreign — discard or
/// recompute it.
class FrameError : public DurableIoError {
 public:
  using DurableIoError::DurableIoError;
};

/// The operating system refused an IO operation (open, write, fsync,
/// rename, read). The message carries the path and errno text.
class IoError : public DurableIoError {
 public:
  using DurableIoError::DurableIoError;
};

/// Appends fixed-width fields to a byte string (see the layouts above).
class ByteWriter {
 public:
  ByteWriter& u32(std::uint32_t v) { return bytes(&v, sizeof(v)); }
  ByteWriter& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  ByteWriter& i64(std::int64_t v) { return bytes(&v, sizeof(v)); }
  /// The bit pattern of `v`.
  ByteWriter& f64(double v) { return bytes(&v, sizeof(v)); }
  /// Raw bytes, no length prefix.
  ByteWriter& bytes(const void* data, std::size_t size);
  ByteWriter& bytes(std::string_view b) { return bytes(b.data(), b.size()); }
  /// u64 length, then the bytes.
  ByteWriter& str(std::string_view s) { return u64(s.size()).bytes(s); }

  /// Moves the bytes out; the writer is empty afterwards.
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads ByteWriter fields back from a view, checking each read against
/// the bytes left. Every failure is a FrameError naming the field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint32_t u32(const char* what) { return fixed<std::uint32_t>(what); }
  std::uint64_t u64(const char* what) { return fixed<std::uint64_t>(what); }
  std::int64_t i64(const char* what) { return fixed<std::int64_t>(what); }
  double f64(const char* what) { return fixed<double>(what); }
  /// The next `n` bytes, as a view into the input.
  std::string_view bytes(std::uint64_t n, const char* what);
  /// `count` elements of `width` bytes each; the count is checked
  /// against the bytes left before it is multiplied.
  std::string_view array(std::uint64_t count, std::size_t width,
                         const char* what);
  /// A u64 length, then that many bytes.
  std::string_view str(const char* what) { return bytes(u64(what), what); }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws unless every byte of `what` was read.
  void expect_end(const char* what) const;

 private:
  template <typename T>
  T fixed(const char* what) {
    T v;
    std::memcpy(&v, bytes(sizeof(T), what).data(), sizeof(T));
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Wrap `payload` in a framed container (layout above).
std::string frame_encode(std::string_view kind, std::uint32_t version,
                         std::string_view payload);

/// Validate a frame and return its payload. Throws FrameError naming the
/// violated rule (magic, kind, version, truncation, checksum, trailing
/// bytes).
std::string frame_decode(std::string_view bytes, std::string_view kind,
                         std::uint32_t version);

/// Atomically replace `path` with `bytes` (temp file + fsync + rename +
/// directory fsync). Throws IoError on OS failure. Fault injection
/// points: `durable.open_temp`, `durable.write` (honors short_write /
/// corrupt), `durable.fsync`, `durable.rename`.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// Read a whole file. Throws IoError when it does not exist or cannot be
/// read. Fault injection point: `durable.read`.
std::string read_file(const std::string& path);

bool file_exists(const std::string& path);

/// Create `dir` (and parents) if missing. Throws IoError on failure.
void ensure_dir(const std::string& dir);

/// frame_encode + atomic_write_file.
void write_frame_file(const std::string& path, std::string_view kind,
                      std::uint32_t version, std::string_view payload);

/// read_file + frame_decode.
std::string read_frame_file(const std::string& path, std::string_view kind,
                            std::uint32_t version);

}  // namespace sma::util
