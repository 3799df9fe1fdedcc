#include "query/eval_context.h"

namespace sargus {

size_t QueryScratch::MemoryBytes() const {
  return visited_.MemoryBytes() + visited_back.MemoryBytes() +
         line_seen.MemoryBytes() + node_marks.MemoryBytes() +
         parents_.capacity() * sizeof(size_t) +
         (frontier_.capacity() + frontier_back.capacity()) *
             sizeof(ProductConfig) +
         (line_frontier.capacity() + line_next.capacity()) *
             sizeof(LineVertexId);
}

EvalContext& ThreadLocalEvalContext() {
  thread_local EvalContext ctx;
  return ctx;
}

}  // namespace sargus
