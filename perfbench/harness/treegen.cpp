#include "treegen.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "analysis/corpus.h"

namespace fs = std::filesystem;

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection sampling keeps the draw unbiased for any n.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  for (;;) {
    const std::uint64_t x = next();
    if (x < limit) return x % n;
  }
}

namespace {

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string dec(std::uint64_t v, int width) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%0*llu", width,
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string large_unit(std::uint64_t seed, std::size_t min_bytes) {
  Rng rng(seed);
  std::string out =
      "// generated large unit " + hex16(seed) +
      "\nclass PoolRecord { int payload[12]; int checksum; };\n\n";
  out.reserve(min_bytes + 2048);
  for (std::uint64_t block = 0; out.size() < min_bytes; ++block) {
    // Fixed-width constants: every seed yields the same unit size.
    const std::string id = dec(block, 6);
    const std::string k1 = dec(rng.below(1000), 3);
    const std::string k2 = dec(1 + rng.below(99), 2);
    const std::string slot = std::to_string(rng.below(10));  // one digit
    out += "int accumulate_" + id + "(int count) {\n  int acc = " + k1 +
           ";\n  for (int i = 0; i < count; ++i) {\n    acc = acc + i * " + k2 +
           " % 7 - count / (i + 1);\n    if (acc > " + k1 +
           " && count < 50) {\n      acc = acc - i % 16;\n    }\n  }\n"
           "  char* label = \"unit " + id + "\";  // literal\n"
           "  return acc;\n}\n\n"
           "void place_" + id + "() {\n  int pool[16];\n"
           "  PoolRecord* rec = new (pool) PoolRecord();\n  rec->payload[" +
           slot + "] = accumulate_" + id + "(" + k2 + ");\n}\n\n";
  }
  return out;
}

Tree make_tree(const std::string& root, const TreeShape& shape,
               std::uint64_t seed) {
  Rng rng(seed);
  const auto& cases = pnlab::analysis::corpus::analyzer_corpus();
  // Balanced draw: each corpus case fills the same number of slots.
  std::vector<std::size_t> slots(shape.files);
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i % cases.size();
  shuffle(slots, rng);

  Tree tree;
  tree.root = root;
  const std::size_t dirs = std::max<std::size_t>(1, shape.dirs);
  for (std::size_t i = 0; i < shape.files; ++i) {
    const auto& c = cases[slots[i]];
    const std::string dir = "d" + dec(rng.below(dirs), 3);
    tree.files.push_back(root + "/" + dir + "/u" + dec(i, 5) + "_" + c.id +
                         ".pnc");
    tree.sources.push_back("// unit " + dec(i, 5) + " of tree " +
                           hex16(seed) + "\n" + c.source);
  }
  for (std::size_t i = 0; i < shape.large_units; ++i) {
    tree.files.push_back(root + "/large/unit" + dec(i, 2) + ".pnc");
    tree.sources.push_back(large_unit(rng.next(), shape.large_bytes));
  }
  // Sorted paths, the order BatchDriver reports files in.
  std::vector<std::size_t> order(tree.files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tree.files[a] < tree.files[b];
  });
  Tree sorted;
  sorted.root = root;
  for (std::size_t i : order) {
    sorted.files.push_back(std::move(tree.files[i]));
    sorted.sources.push_back(std::move(tree.sources[i]));
    sorted.bytes += sorted.sources.back().size();
  }
  return sorted;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

void write_tree(const Tree& tree) {
  std::error_code ec;
  fs::remove_all(tree.root, ec);
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    fs::create_directories(fs::path(tree.files[i]).parent_path());
    write_file(tree.files[i], tree.sources[i]);
  }
}

std::string edited_source(const Tree& tree, std::size_t index,
                          std::uint64_t revision) {
  return "// rev " + std::to_string(revision) + "\n" + tree.sources[index];
}

EditSchedule::EditSchedule(std::uint64_t seed, std::size_t tree_files)
    : rng_(seed ^ 0x6564697473636865ull), tree_files_(tree_files) {}

std::vector<std::size_t> EditSchedule::next() {
  if (block_.empty()) {
    const std::size_t batch = std::max<std::size_t>(1, tree_files_ / 100);
    block_.assign(70, 0);
    block_.insert(block_.end(), 28, 1);
    block_.insert(block_.end(), 2, batch);
    shuffle(block_, rng_);
  }
  const std::size_t k = std::min(block_.back(), tree_files_);
  block_.pop_back();
  std::vector<std::size_t> picked;
  while (picked.size() < k) {
    const std::size_t f = rng_.below(tree_files_);
    if (std::find(picked.begin(), picked.end(), f) == picked.end()) {
      picked.push_back(f);
    }
  }
  return picked;
}

}  // namespace perfbench
