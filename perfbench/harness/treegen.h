// Seeded source-tree generator shared by every benchmark workload.
//
// The benchmark takes its seed on the command line and the program
// under test only ever sees the files written here.  A seed fixes the
// whole tree: which corpus case lands in which file, the directory
// layout, the constants inside the large generated units, and the edit
// schedule of the edit_reanalyze workload.  Shapes are balanced on
// purpose — every corpus case appears the same number of times and
// file headers are fixed-width — so two seeds give different trees of
// the same byte size and the same mix of checker work; run-to-run
// spread then measures the system, not the draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable sequence for a given seed (the
/// standard library's distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

struct TreeShape {
  std::size_t files = 0;        ///< corpus-derived sub-KiB units
  std::size_t dirs = 1;         ///< subdirectories they are spread over
  std::size_t large_units = 0;  ///< generated units of >= large_bytes
  std::size_t large_bytes = std::size_t{1} << 20;
};

struct Tree {
  std::string root;
  std::vector<std::string> files;    ///< "<root>/..." paths, sorted
  std::vector<std::string> sources;  ///< contents, parallel to files
  std::uint64_t bytes = 0;           ///< summed source bytes
};

/// The tree for (@p shape, @p seed), in memory.
Tree make_tree(const std::string& root, const TreeShape& shape,
               std::uint64_t seed);

/// Writes @p tree under its root, replacing anything already there.
/// Throws std::runtime_error on any IO failure.
void write_tree(const Tree& tree);

/// One large generated translation unit of at least @p min_bytes.
std::string large_unit(std::uint64_t seed, std::size_t min_bytes);

/// Contents of file @p index of @p tree after its @p revision-th edit:
/// the original with a revision header, so every edit changes bytes.
std::string edited_source(const Tree& tree, std::size_t index,
                          std::uint64_t revision);

/// The edit_reanalyze draw: how many files each op rewrites, and which.
/// Per block of 100 ops, 70 edit nothing, 28 edit one file and 2 edit
/// 1% of the tree, in a seeded order.  The split keeps each reported
/// percentile inside one kind of op: the median among the no-change
/// ops, p90 among the one-file edits, p99 among the 1% batches.
class EditSchedule {
 public:
  EditSchedule(std::uint64_t seed, std::size_t tree_files);
  /// The files (indexes into Tree::files, distinct) the next op edits.
  std::vector<std::size_t> next();

 private:
  Rng rng_;
  std::size_t tree_files_;
  std::vector<std::size_t> block_;  ///< edit counts left in this block
};

/// Writes @p bytes to @p path (truncating); throws on failure.
void write_file(const std::string& path, const std::string& bytes);

}  // namespace perfbench
