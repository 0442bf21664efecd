#ifndef MTCACHE_STORAGE_BPTREE_H_
#define MTCACHE_STORAGE_BPTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "types/value.h"

namespace mtcache {

/// Row identifier: slot number in a table's heap.
using RowId = int64_t;

/// A borrowed key: `size()` consecutive cells. It does not own the cells; a
/// KeyRef from BPlusTree::Iterator::key() points into a tree node and stays
/// valid only while the tree is not modified (that is, while the caller holds
/// the table latch it read the tree under). A Row converts implicitly and
/// must outlive the view.
class KeyRef {
 public:
  KeyRef(const Value* cells, size_t width) : cells_(cells), width_(width) {}
  KeyRef(const Row& row)  // NOLINT(google-explicit-constructor)
      : cells_(row.data()), width_(row.size()) {}

  const Value& operator[](size_t i) const { return cells_[i]; }
  size_t size() const { return width_; }
  const Value* begin() const { return cells_; }
  const Value* end() const { return cells_ + width_; }

 private:
  const Value* cells_;
  size_t width_;
};

/// In-memory B+-tree over composite Value keys, mapping key -> RowId.
/// Every key has the tree's fixed width (the index's key-column count).
/// Duplicate user keys are supported by treating (key, rowid) as the full
/// unique key. Leaves are chained for range scans (index seeks produce
/// ordered output). Deletion removes entries without rebalancing: a node
/// left at most a quarter full gives its spare capacity back, and an emptied
/// node is freed (a root left with one child hands the tree to it).
///
/// Layout: a node stores its keys in place, entry i's cells at
/// [i*width, (i+1)*width) of one Value array, beside a parallel RowId array
/// (and, in an inner node, the child array). Leaves and inner nodes are both
/// binary-searched. A node array grows by half its size up to the fanout,
/// and both halves of a split are trimmed to what they hold.
class BPlusTree {
 public:
  static constexpr int kFanout = 64;

  /// `width` is the number of key columns every entry carries.
  explicit BPlusTree(int width);
  ~BPlusTree();
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// `key` must have exactly width() cells; they are copied into the tree.
  void Insert(KeyRef key, RowId rid);
  /// Removes the (key, rid) entry; returns false if absent.
  bool Erase(KeyRef key, RowId rid);

  int width() const { return width_; }
  int64_t size() const { return size_; }

  struct Node;

  /// Forward iterator over (key, rowid) entries in key order.
  class Iterator {
   public:
    bool Valid() const { return node_ != nullptr; }
    /// The entry's cells, in place (see KeyRef for how long they live).
    KeyRef key() const;
    RowId rowid() const;
    void Next();

   private:
    friend class BPlusTree;
    /// Moves past exhausted (or emptied) leaves to the next entry.
    void SkipExhausted();
    Node* node_ = nullptr;
    int pos_ = 0;
    int width_ = 0;
  };

  Iterator Begin() const;
  /// First entry with user key >= `key` (prefix comparison over the leading
  /// key.size() columns).
  Iterator SeekGe(KeyRef key) const;
  /// First entry with user key > `key` (prefix comparison).
  Iterator SeekGt(KeyRef key) const;

  /// Lexicographic comparison of the first min(|a|,|b|) columns.
  static int ComparePrefix(KeyRef a, KeyRef b) {
    size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    return 0;
  }

  /// The tree's size and memory, counted from its own nodes (not from the
  /// allocator): `bytes` is every node's header plus the capacity of its
  /// key, rowid and child arrays. Walks every node.
  struct Shape {
    int64_t entries = 0;
    int64_t height = 0;  // levels, a lone leaf root being 1
    int64_t leaf_nodes = 0;
    int64_t inner_nodes = 0;
    int64_t bytes = 0;
  };
  Shape ComputeShape() const;

 private:
  Iterator Seek(KeyRef key, bool strict) const;

  int width_;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
};

}  // namespace mtcache

#endif  // MTCACHE_STORAGE_BPTREE_H_
