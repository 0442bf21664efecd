#include "storage/bptree.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace mtcache {

struct BPlusTree::Node {
  bool leaf = true;
  // Entry i: key cells keys[i*width, (i+1)*width) and rowid rids[i].
  // Leaf: the entries. Internal: the separators; children.size() ==
  // count() + 1 and separator i is at or below every (key, rid) entry under
  // children[i+1] and above every entry under children[i] (the smallest
  // entry under children[i+1] when the split made it).
  std::vector<Value> keys;
  std::vector<RowId> rids;
  std::vector<std::unique_ptr<Node>> children;
  Node* next = nullptr;  // leaf chain

  int count() const { return static_cast<int>(rids.size()); }
};

namespace {

using Node = BPlusTree::Node;

constexpr size_t kMaxEntries = BPlusTree::kFanout + 1;  // a node splits here

KeyRef KeyAt(const Node& node, int width, int i) {
  return KeyRef(node.keys.data() + static_cast<size_t>(i) * width, width);
}

std::vector<Value>::iterator CellAt(Node* node, int width, int i) {
  return node->keys.begin() + static_cast<ptrdiff_t>(i) * width;
}

// Full-entry comparison: the key's cells, then the rowid.
int CompareEntry(const Node& node, int width, int i, KeyRef key, RowId rid) {
  int c = BPlusTree::ComparePrefix(KeyAt(node, width, i), key);
  if (c != 0) return c;
  RowId r = node.rids[i];
  return r < rid ? -1 : (r > rid ? 1 : 0);
}

// Number of entries of `node` ordered before (key, rid), or with `or_equal`
// at or before it.
int EntryRank(const Node& node, int width, KeyRef key, RowId rid,
              bool or_equal) {
  int lo = 0;
  int hi = node.count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    int c = CompareEntry(node, width, mid, key, rid);
    if (c < 0 || (or_equal && c == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Number of entries of `node` whose key prefix orders before `key`, or with
// `or_equal` at or before it.
int PrefixRank(const Node& node, int width, KeyRef key, bool or_equal) {
  int lo = 0;
  int hi = node.count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    int c = BPlusTree::ComparePrefix(KeyAt(node, width, mid), key);
    if (c < 0 || (or_equal && c == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Makes room for `add` more elements, growing by half the current size (at
// least `add`) but never past `max`.
template <typename T>
void Reserve(std::vector<T>* v, size_t add, size_t max) {
  if (v->size() + add <= v->capacity()) return;
  v->reserve(std::min(max, v->size() + std::max(add, v->size() / 2)));
}

// Drops the elements from `n` on and releases the spare capacity.
template <typename T>
void Trim(std::vector<T>* v, size_t n) {
  v->erase(v->begin() + static_cast<ptrdiff_t>(n), v->end());
  v->shrink_to_fit();
}

// Releases a node's spare capacity once erases leave it holding at most a
// quarter of it. Regrowth adds half the size, so a node churning around one
// size reallocates rarely. The key and rowid arrays fill in step, so one
// test covers both (and the child array, one longer, in an inner node).
void FitIfSparse(Node* node) {
  if (node->rids.size() > node->rids.capacity() / 4) return;
  node->keys.shrink_to_fit();
  node->rids.shrink_to_fit();
  node->children.shrink_to_fit();
}

bool IsEmpty(const Node& node) {
  return node.leaf ? node.rids.empty() : node.children.empty();
}

// Removes (key, rid) from the subtree under `node`; false if absent. A leaf
// the erase empties is unlinked from the leaf chain here and freed by its
// parent, as is an inner node whose last child went. `left` is the subtree
// ordered just before `node` (null at the left edge): its rightmost leaf is
// the chain predecessor of node's leftmost one.
bool EraseRec(Node* node, int width, KeyRef key, RowId rid, Node* left) {
  if (node->leaf) {
    int pos = EntryRank(*node, width, key, rid, false);
    if (pos == node->count() ||
        CompareEntry(*node, width, pos, key, rid) != 0) {
      return false;
    }
    node->keys.erase(CellAt(node, width, pos), CellAt(node, width, pos + 1));
    node->rids.erase(node->rids.begin() + pos);
    if (node->rids.empty() && left != nullptr) {
      while (!left->leaf) left = left->children.back().get();
      left->next = node->next;
    }
    FitIfSparse(node);
    return true;
  }
  int ci = EntryRank(*node, width, key, rid, true);
  Node* child = node->children[ci].get();
  if (!EraseRec(child, width, key, rid,
                ci > 0 ? node->children[ci - 1].get() : left)) {
    return false;
  }
  if (IsEmpty(*child)) {
    // Drop the child and the separator bounding it (its lower one, or for
    // the first child the next one up, which then bounds nothing).
    if (node->count() > 0) {
      int sep = ci > 0 ? ci - 1 : 0;
      node->keys.erase(CellAt(node, width, sep), CellAt(node, width, sep + 1));
      node->rids.erase(node->rids.begin() + sep);
    }
    node->children.erase(node->children.begin() + ci);
    FitIfSparse(node);
  }
  return true;
}

// Inserts a copy of (key, rid) as entry `pos`.
void InsertEntry(Node* node, int width, int pos, KeyRef key, RowId rid) {
  Reserve(&node->keys, width, kMaxEntries * width);
  Reserve(&node->rids, 1, kMaxEntries);
  node->keys.insert(CellAt(node, width, pos), key.begin(), key.end());
  node->rids.insert(node->rids.begin() + pos, rid);
}

struct SplitResult {
  bool split = false;
  Row sep_key;
  RowId sep_rid = 0;
  std::unique_ptr<Node> right;
};

SplitResult InsertRec(Node* node, int width, KeyRef key, RowId rid) {
  if (node->leaf) {
    // Keep the leaf sorted by (key, rid).
    InsertEntry(node, width, EntryRank(*node, width, key, rid, false), key,
                rid);
  } else {
    // Descend left of the first separator greater than the entry.
    int ci = EntryRank(*node, width, key, rid, true);
    SplitResult child = InsertRec(node->children[ci].get(), width, key, rid);
    if (child.split) {
      InsertEntry(node, width, ci, child.sep_key, child.sep_rid);
      Reserve(&node->children, 1, kMaxEntries + 1);
      node->children.insert(node->children.begin() + ci + 1,
                            std::move(child.right));
    }
  }

  SplitResult result;
  if (node->count() <= BPlusTree::kFanout) return result;

  // Split the node in half; each half keeps exactly the capacity it fills.
  int mid = node->count() / 2;
  auto right = std::make_unique<Node>();
  right->leaf = node->leaf;
  if (node->leaf) {
    right->keys.assign(std::make_move_iterator(CellAt(node, width, mid)),
                       std::make_move_iterator(node->keys.end()));
    right->rids.assign(node->rids.begin() + mid, node->rids.end());
    right->next = node->next;
    node->next = right.get();
    result.sep_key.assign(right->keys.begin(), right->keys.begin() + width);
    result.sep_rid = right->rids.front();
  } else {
    // Separator at `mid` moves up.
    result.sep_key.assign(std::make_move_iterator(CellAt(node, width, mid)),
                          std::make_move_iterator(CellAt(node, width, mid + 1)));
    result.sep_rid = node->rids[mid];
    right->keys.assign(std::make_move_iterator(CellAt(node, width, mid + 1)),
                       std::make_move_iterator(node->keys.end()));
    right->rids.assign(node->rids.begin() + mid + 1, node->rids.end());
    right->children.assign(
        std::make_move_iterator(node->children.begin() + mid + 1),
        std::make_move_iterator(node->children.end()));
    Trim(&node->children, mid + 1);
  }
  Trim(&node->keys, static_cast<size_t>(mid) * width);
  Trim(&node->rids, mid);
  result.split = true;
  result.right = std::move(right);
  return result;
}

void AddShape(const Node& node, int64_t depth, BPlusTree::Shape* shape) {
  shape->height = std::max(shape->height, depth);
  ++(node.leaf ? shape->leaf_nodes : shape->inner_nodes);
  shape->bytes += static_cast<int64_t>(
      sizeof(Node) + node.keys.capacity() * sizeof(Value) +
      node.rids.capacity() * sizeof(RowId) +
      node.children.capacity() * sizeof(std::unique_ptr<Node>));
  for (const auto& child : node.children) AddShape(*child, depth + 1, shape);
}

}  // namespace

BPlusTree::BPlusTree(int width)
    : width_(width), root_(std::make_unique<Node>()) {}
BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

void BPlusTree::Insert(KeyRef key, RowId rid) {
  assert(static_cast<int>(key.size()) == width_);
  SplitResult split = InsertRec(root_.get(), width_, key, rid);
  if (split.split) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->keys = std::move(split.sep_key);
    new_root->rids.push_back(split.sep_rid);
    new_root->children.reserve(2);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(split.right));
    root_ = std::move(new_root);
  }
  ++size_;
}

bool BPlusTree::Erase(KeyRef key, RowId rid) {
  assert(static_cast<int>(key.size()) == width_);
  if (!EraseRec(root_.get(), width_, key, rid, nullptr)) return false;
  // An inner root left with one child hands the tree to it.
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children.front());
  }
  --size_;
  return true;
}

KeyRef BPlusTree::Iterator::key() const {
  return KeyAt(*node_, width_, pos_);
}
RowId BPlusTree::Iterator::rowid() const { return node_->rids[pos_]; }

void BPlusTree::Iterator::Next() {
  ++pos_;
  SkipExhausted();
}

void BPlusTree::Iterator::SkipExhausted() {
  while (node_ != nullptr && pos_ >= node_->count()) {
    node_ = node_->next;
    pos_ = 0;
  }
}

BPlusTree::Iterator BPlusTree::Begin() const {
  const Node* node = root_.get();
  while (!node->leaf) node = node->children.front().get();
  Iterator it;
  it.node_ = const_cast<Node*>(node);
  it.width_ = width_;
  it.SkipExhausted();
  return it;
}

BPlusTree::Iterator BPlusTree::SeekGe(KeyRef key) const {
  return Seek(key, false);
}

BPlusTree::Iterator BPlusTree::SeekGt(KeyRef key) const {
  return Seek(key, true);
}

// Every entry past the leaf reached is at or above the separator that bounds
// it, so the first qualifying entry is in that leaf or first in the next
// non-empty one.
BPlusTree::Iterator BPlusTree::Seek(KeyRef key, bool strict) const {
  const Node* node = root_.get();
  while (!node->leaf) {
    node = node->children[PrefixRank(*node, width_, key, strict)].get();
  }
  Iterator it;
  it.node_ = const_cast<Node*>(node);
  it.pos_ = PrefixRank(*node, width_, key, strict);
  it.width_ = width_;
  it.SkipExhausted();
  return it;
}

BPlusTree::Shape BPlusTree::ComputeShape() const {
  Shape shape;
  shape.entries = size_;
  if (root_ != nullptr) AddShape(*root_, 1, &shape);
  return shape;
}

}  // namespace mtcache
