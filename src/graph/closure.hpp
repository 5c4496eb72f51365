// Descendant closure over the loop-independent subgraph.
//
// The Rank Algorithm's backward-scheduling step needs, for each node x, the
// set of all (transitive) descendants of x among the active nodes.  We
// compute these as bitset rows in reverse topological order: O(V * E / 64).
//
// Rows live in a ClosureMatrix: one contiguous row-major uint64_t buffer
// (arena-backed when the caller provides an arena, e.g. a RankSession's),
// so a whole session's closure is a single allocation and row operations
// are word-parallel over adjacent memory — the pre-SoA layout's
// vector<DynamicBitset> paid one heap allocation and one indirection per
// row.  tests/test_differential.cpp keeps that old layout verbatim as an
// oracle and requires byte-identical rows.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/depgraph.hpp"
#include "graph/nodeset.hpp"
#include "support/arena.hpp"
#include "support/bitset.hpp"

namespace ais {

/// Read-only view of one closure row: `bits` bits backed by `words[0..]`,
/// bit i of the row at words[i / 64] >> (i % 64).
class ClosureRow {
 public:
  ClosureRow(const std::uint64_t* words, std::size_t bits)
      : words_(words), bits_(bits) {}

  std::size_t size() const { return bits_; }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  std::span<const std::uint64_t> words() const {
    return {words_, (bits_ + 63) / 64};
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words()) {
      n += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return n;
  }

  /// True iff this row and `mask` share a set bit.  Sizes must match.
  bool intersects(const DynamicBitset& mask) const;

  /// Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t nwords = (bits_ + 63) / 64;
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  const std::uint64_t* words_;
  std::size_t bits_;
};

/// Dense rows x bits bit matrix in one contiguous row-major uint64_t
/// buffer.  With an Arena the buffer is carved from it (one bump, freed
/// wholesale with the arena); without one the matrix owns heap storage.
class ClosureMatrix {
 public:
  ClosureMatrix() = default;

  ClosureMatrix(std::size_t rows, std::size_t bits, Arena* arena)
      : rows_(rows), bits_(bits), words_per_row_((bits + 63) / 64) {
    const std::size_t total = rows_ * words_per_row_;
    if (arena != nullptr) {
      data_ = arena->alloc_array<std::uint64_t>(total);
      std::memset(data_, 0, total * sizeof(std::uint64_t));
    } else {
      owned_.assign(total, 0);
      data_ = owned_.data();
    }
  }

  // Move-only: arena-backed storage cannot be copied with the matrix.
  ClosureMatrix(ClosureMatrix&&) noexcept = default;
  ClosureMatrix& operator=(ClosureMatrix&&) noexcept = default;
  ClosureMatrix(const ClosureMatrix&) = delete;
  ClosureMatrix& operator=(const ClosureMatrix&) = delete;

  std::size_t rows() const { return rows_; }
  std::size_t bits() const { return bits_; }
  std::size_t words_per_row() const { return words_per_row_; }

  std::uint64_t* row_data(std::size_t r) { return data_ + r * words_per_row_; }
  const std::uint64_t* row_data(std::size_t r) const {
    return data_ + r * words_per_row_;
  }
  ClosureRow row(std::size_t r) const { return {row_data(r), bits_}; }

  void set(std::size_t r, std::size_t bit) {
    row_data(r)[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  bool test(std::size_t r, std::size_t bit) const {
    return row(r).test(bit);
  }

  /// row dst |= row src (word-parallel).
  void row_or(std::size_t dst, std::size_t src) {
    std::uint64_t* d = row_data(dst);
    const std::uint64_t* s = row_data(src);
    for (std::size_t w = 0; w < words_per_row_; ++w) d[w] |= s[w];
  }

  /// True iff row r and `mask` share a set bit.
  bool intersects(std::size_t r, const DynamicBitset& mask) const {
    return row(r).intersects(mask);
  }

  /// Calls fn(i) for every bit i set in both row r and `mask`, ascending.
  template <typename Fn>
  void for_each_set_in(std::size_t r, const DynamicBitset& mask,
                       Fn&& fn) const {
    const std::uint64_t* d = row_data(r);
    const std::span<const std::uint64_t> m = mask.words();
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      std::uint64_t word = d[w] & m[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::uint64_t* data_ = nullptr;
  std::vector<std::uint64_t> owned_;
  std::size_t rows_ = 0;
  std::size_t bits_ = 0;
  std::size_t words_per_row_ = 0;
};

class DescendantClosure {
 public:
  /// Computes closures for every node in `active` using distance-0 edges
  /// between active nodes.  The induced subgraph must be acyclic.  With an
  /// `arena` the row matrix is carved from it (the RankSession passes its
  /// session arena); otherwise the closure owns its storage.
  DescendantClosure(const DepGraph& g, const NodeSet& active,
                    Arena* arena = nullptr);

  /// Row view of the descendants of `id` (excluding `id` itself).  `id`
  /// must be a member of the active set this closure was built from.
  ClosureRow descendants(NodeId id) const;

  /// True iff `descendant` is reachable from `ancestor` (strictly).
  bool reaches(NodeId ancestor, NodeId descendant) const;

  const ClosureMatrix& matrix() const { return matrix_; }

 private:
  std::size_t domain_;
  ClosureMatrix matrix_;
  std::vector<bool> member_;
};

}  // namespace ais
