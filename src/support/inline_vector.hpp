// Fixed-capacity inline vector used for reduction payloads.
//
// Gossip messages and per-edge flow state carry small value vectors (dimension
// 1 for scalar reductions, up to 16 for the batched dot products in the
// distributed QR). Keeping the storage inline avoids per-message heap traffic
// in the simulation engines, which exchange millions of messages per run.
//
// Only the live prefix [0, size()) is ever initialized, read or copied: a
// default-constructed vector leaves its capacity uninitialized, and copies
// move size() elements, not Capacity. A dimension-1 payload therefore costs
// one element to build and copy, not sixteen.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>

#include "support/check.hpp"

namespace pcf {

template <typename T, std::size_t Capacity>
class InlineVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr InlineVector() noexcept {}

  constexpr InlineVector(const InlineVector& other) noexcept { copy_from(other); }
  constexpr InlineVector& operator=(const InlineVector& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  /// Size-constructed with value-initialized elements.
  explicit constexpr InlineVector(std::size_t n, const T& fill = T{}) { resize(n, fill); }

  constexpr InlineVector(std::initializer_list<T> init)
      : InlineVector(std::span<const T>(init.begin(), init.size())) {}

  explicit constexpr InlineVector(std::span<const T> values) { assign(values); }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] static constexpr std::size_t capacity() noexcept { return Capacity; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }

  constexpr void clear() noexcept { size_ = 0; }

  constexpr void resize(std::size_t n, const T& fill = T{}) {
    PCF_CHECK_MSG(n <= Capacity, "InlineVector resize beyond capacity");
    for (std::size_t i = size_; i < n; ++i) data_[i] = fill;
    size_ = n;
  }

  /// Replaces the contents with `values`.
  constexpr void assign(std::span<const T> values) {
    PCF_CHECK_MSG(values.size() <= Capacity, "InlineVector assign beyond capacity");
    std::copy(values.begin(), values.end(), data_.begin());
    size_ = values.size();
  }

  constexpr void push_back(const T& v) {
    PCF_CHECK_MSG(size_ < Capacity, "InlineVector overflow");
    data_[size_++] = v;
  }

  constexpr T& operator[](std::size_t i) noexcept {
    PCF_ASSERT(i < size_);
    return data_[i];
  }
  constexpr const T& operator[](std::size_t i) const noexcept {
    PCF_ASSERT(i < size_);
    return data_[i];
  }

  [[nodiscard]] constexpr iterator begin() noexcept { return data_.data(); }
  [[nodiscard]] constexpr iterator end() noexcept { return data_.data() + size_; }
  [[nodiscard]] constexpr const_iterator begin() const noexcept { return data_.data(); }
  [[nodiscard]] constexpr const_iterator end() const noexcept { return data_.data() + size_; }
  [[nodiscard]] constexpr T* data() noexcept { return data_.data(); }
  [[nodiscard]] constexpr const T* data() const noexcept { return data_.data(); }

  [[nodiscard]] constexpr std::span<const T> as_span() const noexcept {
    return {data_.data(), size_};
  }
  [[nodiscard]] constexpr std::span<T> as_span() noexcept { return {data_.data(), size_}; }

  friend constexpr bool operator==(const InlineVector& a, const InlineVector& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  constexpr void copy_from(const InlineVector& other) noexcept {
    std::copy(other.begin(), other.end(), data_.begin());
    size_ = other.size_;
  }

  std::array<T, Capacity> data_;  // only [0, size_) is initialized
  std::size_t size_ = 0;
};

}  // namespace pcf
