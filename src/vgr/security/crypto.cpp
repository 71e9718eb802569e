#include "vgr/security/crypto.hpp"

namespace vgr::security {

std::uint64_t keyed_digest(std::uint64_t key, const net::Bytes& message) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ key;
  for (const std::uint8_t byte : message) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  h ^= key * 0x9e3779b97f4a7c15ULL;
  // SplitMix64 finaliser for avalanche.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace vgr::security
