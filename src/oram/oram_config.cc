#include "oram/oram_config.hh"

#include "common/bitutils.hh"

namespace tcoram::oram {

std::uint64_t
OramConfig::pathBytes() const
{
    return static_cast<std::uint64_t>(treeDepth() + 1) * bucketBytes();
}

std::vector<OramConfig>
OramConfig::recursionChain() const
{
    std::vector<OramConfig> chain;
    constexpr std::uint64_t leaf_label_bytes = 8;
    std::uint64_t entries = numBlocks;
    for (unsigned i = 0; i < recursionLevels; ++i) {
        const std::uint64_t per_block = recursiveBlockBytes / leaf_label_bytes;
        entries = divCeil(entries, per_block);
        if (entries <= 1)
            break;
        OramConfig c = *this;
        c.numBlocks = entries;
        c.blockBytes = recursiveBlockBytes;
        c.recursionLevels = 0;
        chain.push_back(c);
    }
    return chain;
}

std::uint64_t
OramConfig::totalBytesPerAccess() const
{
    std::uint64_t total = 2 * pathBytes();
    for (const auto &c : recursionChain())
        total += 2 * c.pathBytes();
    return total;
}

OramConfig
OramConfig::paperConfig()
{
    OramConfig c;
    // 4 GB of 64 B blocks = 2^26 blocks.
    c.numBlocks = std::uint64_t{1} << 26;
    return c;
}

OramConfig
OramConfig::benchConfig()
{
    OramConfig c;
    c.numBlocks = std::uint64_t{1} << 16; // 4 MB of data blocks
    return c;
}

} // namespace tcoram::oram
