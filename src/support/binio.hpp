// Deterministic binary serialization primitives for the checkpoint layer.
//
// Checkpoints must be byte-identical across platforms and compilers (CI
// compares them and tests pin a golden format hash), so every integer is
// written little-endian byte by byte and every double travels as its IEEE-754
// bit pattern — never through locale- or precision-dependent text formatting.
// The reader is defensive: checkpoints come from disk and may be truncated or
// corrupted, so every read is bounds-checked and throws BinioError instead of
// reading past the end (the checkpoint layer converts that into a rejected
// restore, see sim/checkpoint.hpp).
//
// Each binary format is declared once. BinaryWriter and BinaryReader share a
// field vocabulary (the members under "fields" below), so a format is one
// function template over the stream type that lists its fields in order:
// through a writer it appends each field, through a reader it reads each
// field back into the same reference. Writer members take values, so the
// writing instantiation accepts const state. What the reader checks:
//  * expect(value)    a constant (count, degree, dimension, version) matches;
//  * node(id, n)      a node id lies in [0, n);
//  * enumeration(e)   an enum byte does not exceed its last enumerator;
//  * boolean(b)       a strict 0/1 byte (flag() takes any byte as "nonzero");
//  * sequence, size   a count fits the remaining input, before allocation;
//  * u8_size(c, max)  a one-byte length does not exceed `max`;
//  * nested(body)     a length-prefixed sub-blob is consumed exactly.
// tag(magic) reports a mismatch instead of throwing, so file formats keep
// their own error type for a foreign file.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace pcf {

/// Malformed or truncated binary input. Never indicates a programming error —
/// callers feed untrusted bytes and handle this as a rejected input.
class BinioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends fixed-width little-endian fields to a growing byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void raw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// Length-prefixed byte string.
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  // ---- fields (the vocabulary BinaryReader mirrors) ----

  void flag(std::uint8_t v) { u8(v); }

  /// A constant, written at the width of T.
  template <std::unsigned_integral T>
  void expect(T value, const char* /*what*/) {
    put(value);
  }

  void node(std::uint32_t id, std::size_t /*n*/) { u32(id); }

  /// An enum stored as one byte.
  template <class E>
    requires std::is_enum_v<E>
  void enumeration(E value, E /*last*/) {
    u8(static_cast<std::uint8_t>(value));
  }

  [[nodiscard]] bool tag(std::string_view magic) {
    raw(magic.data(), magic.size());
    return true;
  }

  /// A u64 element count the caller sizes its containers from.
  void size(std::size_t n, std::size_t /*min_element_bytes*/) { u64(n); }

  /// A container's one-byte length (the reader resizes to it).
  template <class C>
  void u8_size(const C& c, std::size_t /*max*/) {
    u8(static_cast<std::uint8_t>(c.size()));
  }

  /// A u64 count, then each element through `each(element)`.
  template <class C, class F>
  void sequence(const C& c, std::size_t /*min_element_bytes*/, F&& each) {
    u64(c.size());
    for (const auto& element : c) each(element);
  }

  /// A length-prefixed sub-blob that `body(sub)` writes through its own
  /// stream.
  template <class F>
  void nested(F&& body) {
    BinaryWriter sub;
    body(sub);
    str(sub.buffer());
  }

  [[nodiscard]] const std::string& buffer() const noexcept { return buf_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    }
  }

  std::string buf_;
};

/// Cursor over a byte buffer; every read throws BinioError on truncation.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return get<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return get<std::uint64_t>(); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw BinioError("binio: boolean byte out of range");
    return v != 0;
  }

  [[nodiscard]] std::string_view raw(std::size_t size) {
    need(size);
    const std::string_view out = data_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  /// Length-prefixed byte string (see BinaryWriter::str).
  [[nodiscard]] std::string_view str() {
    const std::uint64_t size = u64();
    if (size > remaining()) throw BinioError("binio: string length exceeds input");
    return raw(static_cast<std::size_t>(size));
  }

  /// Bounds-checked element count for a sequence whose elements occupy at
  /// least `min_element_bytes` each — rejects counts a truncated or corrupted
  /// length prefix could not possibly satisfy before any allocation happens.
  [[nodiscard]] std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      throw BinioError("binio: sequence count exceeds input");
    }
    return static_cast<std::size_t>(n);
  }

  // ---- fields (BinaryWriter's vocabulary, read back in place) ----

  template <std::unsigned_integral T>
    requires(sizeof(T) == 1)
  void u8(T& v) {
    v = u8();
  }
  template <std::unsigned_integral T>
    requires(sizeof(T) == 4)
  void u32(T& v) {
    v = u32();
  }
  template <std::unsigned_integral T>
    requires(sizeof(T) == 8)
  void u64(T& v) {
    v = u64();
  }
  void f64(double& v) { v = f64(); }
  /// Into a bool, a vector<bool> bit or a byte flag.
  template <class B>
  void boolean(B&& v) {
    v = boolean();
  }
  template <class B>
  void flag(B&& v) {
    v = u8() != 0 ? 1 : 0;
  }
  void str(std::string& v) { v = std::string(str()); }

  template <std::unsigned_integral T>
  void expect(T value, const char* what) {
    if (get<T>() != value) throw BinioError(what);
  }

  void node(std::uint32_t& id, std::size_t n) {
    id = u32();
    if (id >= n) throw BinioError("binio: node id out of range");
  }

  template <class E>
    requires std::is_enum_v<E>
  void enumeration(E& value, E last) {
    const std::uint8_t v = u8();
    if (v > static_cast<std::uint8_t>(last)) throw BinioError("binio: enum value out of range");
    value = static_cast<E>(v);
  }

  [[nodiscard]] bool tag(std::string_view magic) { return raw(magic.size()) == magic; }

  void size(std::size_t& n, std::size_t min_element_bytes) { n = count(min_element_bytes); }

  template <class C>
  void u8_size(C& c, std::size_t max) {
    const std::uint8_t n = u8();
    if (n > max) throw BinioError("binio: length out of range");
    c.resize(n);
  }

  /// Clears `c`, then reads each element into a fresh value and appends it.
  template <class C, class F>
  void sequence(C& c, std::size_t min_element_bytes, F&& each) {
    const std::size_t n = count(min_element_bytes);
    c.clear();
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Element<typename C::value_type> element{};
      each(element);
      c.insert(c.end(), std::move(element));
    }
  }

  template <class F>
  void nested(F&& body) {
    BinaryReader sub(str());
    body(sub);
    sub.expect_end();
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  /// Throws unless the input was consumed exactly — trailing bytes mean the
  /// buffer is not what the writer produced.
  void expect_end() const {
    if (pos_ != data_.size()) throw BinioError("binio: trailing bytes after payload");
  }

 private:
  void need(std::size_t n) const {
    if (n > remaining()) throw BinioError("binio: truncated input");
  }

  template <std::unsigned_integral T>
  [[nodiscard]] T get() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i));
    }
    return v;
  }

  /// A container element the read can fill in place: a map's value_type
  /// with its key made mutable.
  template <class T>
  struct MutableKey {
    using type = T;
  };
  template <class K, class V>
  struct MutableKey<std::pair<const K, V>> {
    using type = std::pair<K, V>;
  };
  template <class T>
  using Element = typename MutableKey<T>::type;

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace pcf
