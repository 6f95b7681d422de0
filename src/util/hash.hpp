// Content hashing: cache keys, digests and the durable frame checksum.
//
// The repo's one FNV-1a 64-bit accumulator: feed it the fields that
// define an artifact's inputs and use the digest as a content address.
// `add_bytes` hashes raw bytes; `add(string_view)` prefixes the length,
// so use `add_bytes` where bytes must hash exactly as written. Doubles are
// hashed by bit pattern, so two configs hash equal iff every field is
// bit-equal — exactly the granularity at which the deterministic
// generators reproduce identical outputs.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace sma::util {

class ContentHash {
 public:
  ContentHash& add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= bytes[i];
      state_ *= 0x100000001b3ull;  // FNV-1a prime
    }
    return *this;
  }

  ContentHash& add(std::uint64_t v) { return add_bytes(&v, sizeof(v)); }
  ContentHash& add(std::int64_t v) { return add_bytes(&v, sizeof(v)); }
  ContentHash& add(int v) { return add(static_cast<std::int64_t>(v)); }
  ContentHash& add(bool v) { return add(static_cast<std::int64_t>(v)); }

  ContentHash& add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return add(bits);
  }

  ContentHash& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));  // guard against splicing
    return add_bytes(s.data(), s.size());
  }
  ContentHash& add(const std::string& s) { return add(std::string_view(s)); }
  ContentHash& add(const char* s) { return add(std::string_view(s)); }

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

}  // namespace sma::util
