// Fixed-capacity containers.
//
// The protocol machines (src/proto) are finite-state automata: their state
// must not grow with the network size. Every queue or list inside a machine
// therefore uses these containers, whose capacity is a compile-time constant
// and whose overflow is a hard protocol-invariant violation (DTOP_CHECK),
// never a reallocation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "support/error.hpp"

namespace dtop {

// Contiguous vector with inline storage for at most `Cap` elements.
template <typename T, std::size_t Cap>
class FixedVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "FixedVector is used inside finite-state machine state; "
                "elements must be trivially copyable PODs");

 public:
  using value_type = T;

  constexpr FixedVector() = default;

  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr bool full() const { return size_ == Cap; }
  static constexpr std::size_t capacity() { return Cap; }

  void push_back(const T& v) {
    DTOP_CHECK(size_ < Cap, "FixedVector overflow");
    items_[size_++] = v;
  }

  void pop_back() {
    DTOP_CHECK(size_ > 0, "FixedVector underflow");
    --size_;
  }

  void clear() { size_ = 0; }

  // Drops every element from index n on.
  void truncate(std::size_t n) {
    DTOP_CHECK(n <= size_, "FixedVector truncate past the end");
    size_ = n;
  }

  T& operator[](std::size_t i) {
    DTOP_CHECK(i < size_, "FixedVector index out of range");
    return items_[i];
  }
  const T& operator[](std::size_t i) const {
    DTOP_CHECK(i < size_, "FixedVector index out of range");
    return items_[i];
  }

  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  // Removes element i preserving the order of the remainder.
  void erase_at(std::size_t i) {
    DTOP_CHECK(i < size_, "FixedVector erase out of range");
    for (std::size_t k = i + 1; k < size_; ++k) items_[k - 1] = items_[k];
    --size_;
  }

  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size_; }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }

 private:
  std::array<T, Cap> items_{};
  std::size_t size_ = 0;
};

// FIFO ring buffer with inline storage. Used for the speed hold-queues: a
// character enters, waits a constant number of ticks, and departs in arrival
// order.
template <typename T, std::size_t Cap>
class FixedQueue {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr bool full() const { return size_ == Cap; }
  static constexpr std::size_t capacity() { return Cap; }

  void push(const T& v) {
    DTOP_CHECK(size_ < Cap, "FixedQueue overflow");
    items_[(head_ + size_) % Cap] = v;
    ++size_;
  }

  T& front() {
    DTOP_CHECK(size_ > 0, "FixedQueue empty");
    return items_[head_];
  }
  const T& front() const {
    DTOP_CHECK(size_ > 0, "FixedQueue empty");
    return items_[head_];
  }

  void pop() {
    DTOP_CHECK(size_ > 0, "FixedQueue underflow");
    head_ = (head_ + 1) % Cap;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  // Indexed access in FIFO order (0 == front). Needed by the hold queue to
  // decrement all countdowns each tick.
  T& at(std::size_t i) {
    DTOP_CHECK(i < size_, "FixedQueue index out of range");
    return items_[(head_ + i) % Cap];
  }
  const T& at(std::size_t i) const {
    DTOP_CHECK(i < size_, "FixedQueue index out of range");
    return items_[(head_ + i) % Cap];
  }

 private:
  std::array<T, Cap> items_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dtop
