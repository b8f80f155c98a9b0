/**
 * @file
 * Functional memory system: devices, SRAM, the system map, and the
 * shared-port arbitration primitive (core has priority, the RTOSUnit
 * steals idle cycles — paper Section 4.2(2)).
 */

#ifndef RTU_SIM_MEM_HH
#define RTU_SIM_MEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rtu {

/** Access width in bytes. */
enum class MemSize : std::uint8_t { kByte = 1, kHalf = 2, kWord = 4 };

/** A functional memory-mapped device. */
class MemDevice
{
  public:
    MemDevice(std::string name, Addr base, Addr size)
        : name_(std::move(name)), base_(base), size_(size)
    {}
    virtual ~MemDevice() = default;

    const std::string &name() const { return name_; }
    Addr base() const { return base_; }
    Addr size() const { return size_; }
    bool contains(Addr a) const { return a >= base_ && a < base_ + size_; }

    /** Read @p size bytes at @p addr (zero-extended into a word). */
    virtual Word read(Addr addr, MemSize size) = 0;

    /** Write the low bytes of @p value at @p addr. */
    virtual void write(Addr addr, Word value, MemSize size) = 0;

  private:
    std::string name_;
    Addr base_;
    Addr size_;
};

/** Flat on-chip SRAM. */
class Sram : public MemDevice
{
  public:
    Sram(std::string name, Addr base, Addr size);

    Word read(Addr addr, MemSize size) override;
    void write(Addr addr, Word value, MemSize size) override;

    /** Bulk load used when installing the program image. */
    void loadWords(Addr addr, const std::vector<Word> &words);

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Notified after a write into a watched address range completes (the
 * new bytes are already visible to reads). The predecoded instruction
 * store uses this to re-decode text words hit by guest stores or
 * injected memory faults.
 */
class MemWriteObserver
{
  public:
    virtual ~MemWriteObserver() = default;
    virtual void memWritten(Addr addr, MemSize size) = 0;
};

/**
 * The full system map: routes functional accesses to devices.
 * Timing is the responsibility of the core / RTOSUnit models.
 */
class MemSystem
{
  public:
    void addDevice(MemDevice *dev);

    Word read(Addr addr, MemSize size);
    void write(Addr addr, Word value, MemSize size);

    Word read32(Addr addr) { return read(addr, MemSize::kWord); }
    void write32(Addr addr, Word v) { write(addr, v, MemSize::kWord); }

    MemDevice *deviceAt(Addr addr);

    /**
     * Watch [@p base, @p base + @p size) for writes; every completed
     * write overlapping the range invokes @p observer. One watcher
     * per system (the text segment); nullptr clears it.
     */
    void
    setWriteObserver(Addr base, Addr size, MemWriteObserver *observer)
    {
        watchBase_ = base;
        watchEnd_ = base + size;
        observer_ = observer;
    }

  private:
    /** Route an access; panic on unmapped or device-straddling. */
    MemDevice *route(Addr addr, MemSize size, const char *what);

    std::vector<MemDevice *> devices_;
    Addr watchBase_ = 0;
    Addr watchEnd_ = 0;
    MemWriteObserver *observer_ = nullptr;
};

/**
 * One shared request port per cycle. The core claims it with priority;
 * the RTOSUnit's FSMs succeed only on cycles the core left idle.
 * Each cycle the core calls beginCycle() at the top of its tick, then
 * may claim(); the RTOSUnit, ticked after it, may tryUse().
 */
class SharedPort
{
  public:
    explicit SharedPort(std::string name) : name_(std::move(name)) {}

    void
    beginCycle()
    {
        claimed_ = false;
        used_ = false;
    }

    /** Core-side: reserve the port for this cycle. */
    void
    claim()
    {
        rtu_assert(!claimed_, "double core claim on port '%s'",
                   name_.c_str());
        claimed_ = true;
    }

    bool claimed() const { return claimed_; }

    /** True if neither the core nor the RTOSUnit holds the port. */
    bool available() const { return !claimed_ && !used_; }

    /** RTOSUnit-side: take the port if the core left it idle. */
    bool
    tryUse()
    {
        if (claimed_ || used_)
            return false;
        used_ = true;
        return true;
    }

    /** Statistics: cycles the RTOSUnit actually used. */
    bool usedBySecondary() const { return used_; }

  private:
    std::string name_;
    bool claimed_ = false;
    bool used_ = false;
};

} // namespace rtu

#endif // RTU_SIM_MEM_HH
