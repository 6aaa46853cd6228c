// Architecture-independent application model: the annotated task graph of
// Section 4.1 ("the algorithm is specified using an architecture-independent
// application model such as an annotated task graph").
//
// Tasks form a rooted tree (the paper's case study is a quad-tree; the
// design flow text also mentions general k-ary trees). Each task carries the
// annotations the mapping stage needs: how much data it emits to its parent
// and how much computation one activation costs.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wsn::taskgraph {

using TaskId = std::uint32_t;
inline constexpr TaskId kNoTask = static_cast<TaskId>(-1);

/// Role of a task in the data flow.
enum class TaskKind : std::uint8_t {
  kSense,  // leaf: linked to the sensing interface
  kMerge,  // interior: in-network processing on children's data
};

/// Designer-provided annotations driving cost estimation and mapping.
struct TaskAnnotations {
  /// Units of data this task transmits to its parent per activation.
  double output_units = 1.0;
  /// Computation (ops) one activation performs.
  double compute_ops = 1.0;
};

struct Task {
  TaskId id = kNoTask;
  TaskKind kind = TaskKind::kSense;
  /// Height in the tree: leaves are level 0 (the paper's "level of
  /// recursion" starts at 0 at the sensing tasks).
  std::uint32_t level = 0;
  TaskId parent = kNoTask;
  std::vector<TaskId> children;
  TaskAnnotations annotations;
};

/// A rooted task tree with validation and traversal helpers.
class TaskGraph {
 public:
  /// Adds a task and returns its id. `parent` must already exist or be
  /// kNoTask (at most one root).
  TaskId add_task(TaskKind kind, TaskId parent, TaskAnnotations ann = {});

  std::size_t size() const { return tasks_.size(); }
  const Task& task(TaskId id) const { return tasks_.at(id); }
  Task& task(TaskId id) { return tasks_.at(id); }

  TaskId root() const { return root_; }

  /// All leaf (sense) tasks, in id order.
  std::vector<TaskId> leaves() const;

  /// All tasks at the given level, in id order.
  std::vector<TaskId> at_level(std::uint32_t level) const;

  /// Leaf descendants of `id` (the task's "geographic oversight").
  std::vector<TaskId> leaf_descendants(TaskId id) const;

  /// Height of the tree: max level over all tasks.
  std::uint32_t height() const;

  /// Ids in topological (children-before-parents) order.
  std::vector<TaskId> bottom_up_order() const;

  /// Validates tree shape: exactly one root, acyclic parent chains,
  /// children/parent links consistent, levels = 1 + max child level.
  /// Throws std::logic_error describing the first violation.
  void validate() const;

  const std::vector<Task>& tasks() const { return tasks_; }

 private:
  std::vector<Task> tasks_;
  TaskId root_ = kNoTask;
};

}  // namespace wsn::taskgraph
