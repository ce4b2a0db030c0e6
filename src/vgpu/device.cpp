#include "vgpu/device.hpp"

#include <vector>

namespace cf::vgpu {

Device::Device(std::size_t workers, DeviceProps p)
    : props(p), owned_pool_(std::make_unique<ThreadPool>(workers)), pool_(owned_pool_.get()) {
  alloc_arenas();
}

Device::Device(ThreadPool& pool, DeviceProps p) : props(p), pool_(&pool) { alloc_arenas(); }

void Device::alloc_arenas() {
  arenas_.reserve(pool_->size());
  for (std::size_t i = 0; i < pool_->size(); ++i)
    arenas_.push_back(std::make_unique<std::byte[]>(props.shared_mem_per_block));
}

void Device::note_alloc(std::size_t bytes) {
  const std::size_t now = bytes_in_use_.fetch_add(bytes) + bytes;
  std::size_t peak = peak_bytes_.load();
  while (now > peak && !peak_bytes_.compare_exchange_weak(peak, now)) {
  }
}

void Device::note_free(std::size_t bytes) { bytes_in_use_.fetch_sub(bytes); }

void Device::reset_peak() { peak_bytes_.store(bytes_in_use_.load()); }

// Launches run synchronously, so one buffer per OS thread suffices even when
// several devices are in play; sized to the largest request seen.
std::byte* Device::inline_arena() {
  thread_local std::vector<std::byte> arena;
  if (arena.size() < props.shared_mem_per_block)
    arena.resize(props.shared_mem_per_block);
  return arena.data();
}

}  // namespace cf::vgpu
