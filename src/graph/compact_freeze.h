// The compact freeze's per-slice codec (OverlayGraph::freeze_compact, which
// lives in compact_freeze.cpp). A first pass counts every node's escaped
// links to size its stream; the second writes the stream: one slot word per
// link, then the escaped targets' absolutes.
//
// Two implementations give the same counts and the same words bit for bit:
// the scalar reference, one link at a time, and an AVX-512F/BW/VL kernel
// that counts and encodes sixteen links per step, the inverse of the
// router's sixteen-slot decode. freeze_kernel() picks the kernel from the
// CPU and the node count; nothing else selects it. Internal to the graph
// module and its tests, which call the two per-slice entry points below
// with either kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/overlay_graph.h"

namespace p2p::graph::detail {

enum class FreezeKernel : std::uint8_t { kScalar, kAvx512 };

/// The code freeze_compact runs on an n-node graph: kAvx512 where the CPU
/// has AVX-512F/BW/VL and n <= 2^31, so that every v - u fits an int32
/// lane; kScalar otherwise.
[[nodiscard]] FreezeKernel freeze_kernel(std::size_t n) noexcept;

/// The number of links u -> v, v in `links`, whose compact slot escapes:
/// what the sizing pass counts for one run slice. With kAvx512, u and every
/// v must be below 2^31 and the CPU must have the kernel.
[[nodiscard]] std::size_t escaped_links(FreezeKernel kernel, NodeId u,
                                        std::span<const NodeId> links) noexcept;

/// The stream of a node u whose slice is `links`, without the padding word:
/// its slot words at `stream`, then the escaped targets' absolutes (low half
/// first, in slot order). Returns the end of what it wrote, which must lie
/// in [stream, end); Debug builds assert every kernel store against that
/// range. Same precondition on kAvx512.
std::uint16_t* encode_links(FreezeKernel kernel, NodeId u, std::span<const NodeId> links,
                            std::uint16_t* stream, std::uint16_t* end) noexcept;

}  // namespace p2p::graph::detail
