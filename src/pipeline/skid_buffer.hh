/**
 * @file
 * The parameterized RayFlex Skid Buffer module (Section III-C).
 *
 * The skid buffer is the building block of the RayFlex elastic pipeline.
 * It encapsulates a chunk of programmer-supplied logic (which may be
 * stateful, e.g. the distance accumulators of the extended datapath),
 * synchronizes with producer and consumer through valid-ready handshakes,
 * and provides full throughput with fully registered outputs: both the
 * downstream valid/bits and the upstream ready come from registers, so no
 * combinational path crosses the module. A second ("skid") register
 * catches the in-flight beat when the consumer stalls, which is what lets
 * ready be registered without losing throughput.
 *
 * The module is parameterized by two data types, In and Out, the input
 * and output types of the supplied logic - exactly like the Chisel module
 * in the paper, where this parameterization is what allows all pipeline
 * stages to be handled programmatically as one class (here:
 * SkidBufferBase).
 */
#ifndef RAYFLEX_PIPELINE_SKID_BUFFER_HH
#define RAYFLEX_PIPELINE_SKID_BUFFER_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "pipeline/component.hh"
#include "pipeline/decoupled.hh"

namespace rayflex::pipeline
{

/** Per-stage statistics common to every skid buffer instantiation. */
struct SkidBufferStats
{
    uint64_t accepted = 0;      ///< beats accepted from the producer
    uint64_t delivered = 0;     ///< beats delivered to the consumer
    uint64_t stall_cycles = 0;  ///< cycles with output valid but not ready
    uint64_t idle_cycles = 0;   ///< cycles with nothing buffered
    uint64_t skid_cycles = 0;   ///< cycles with the skid register occupied
    uint64_t cycles = 0;        ///< total cycles observed
};

/**
 * Type-erased view of a skid buffer, mirroring how Chisel treats all
 * parameterizations of the module as a single class. The datapath
 * assembles its stages as a vector of these.
 */
class SkidBufferBase : public Component
{
  public:
    using Component::Component;

    /** Statistics accumulated since construction. */
    const SkidBufferStats &stats() const { return stats_; }

    /** Number of beats currently buffered (0, 1 or 2). */
    virtual unsigned occupancy() const = 0;

  protected:
    SkidBufferStats stats_;
};

/**
 * Skid buffer with input type In, output type Out, and programmer-
 * supplied logic mapping In to Out. The logic runs exactly once per
 * accepted beat (on the acceptance edge), so stateful logic such as
 * accumulators observes each beat exactly once regardless of stalls.
 */
template <typename In, typename Out>
class SkidBuffer : public SkidBufferBase
{
  public:
    /** The programmer-supplied logic encapsulated by this stage. */
    using Logic = std::function<Out(const In &)>;

    SkidBuffer(std::string name, Logic logic)
        : SkidBufferBase(std::move(name)), logic_(std::move(logic))
    {}

    /** Input port: the producer drives valid/bits, this module ready. */
    Decoupled<In> &in() { return in_; }

    /** Output port: this module drives valid/bits, the consumer ready. */
    Decoupled<Out> &out() { return *out_port_; }

    /**
     * Chain this stage into a pipeline: drive the downstream stage's
     * input port directly instead of the internally owned output port.
     * Typical use: a.bindOut(&b.in()).
     */
    void bindOut(Decoupled<Out> *port) { out_port_ = port; }

    void
    publish(uint64_t) override
    {
        out_port_->valid = main_valid_;
        out_port_->bits = main_;
        // Registered ready: a new beat can always be accepted unless the
        // skid register is already holding one.
        in_.ready = !skid_valid_;
    }

    void
    advance(uint64_t) override
    {
        const bool in_fire = in_.valid && in_.ready;
        const bool out_fire = out_port_->valid && out_port_->ready;

        ++stats_.cycles;
        if (out_port_->valid && !out_port_->ready)
            ++stats_.stall_cycles;
        if (!main_valid_ && !skid_valid_)
            ++stats_.idle_cycles;
        if (skid_valid_)
            ++stats_.skid_cycles;

        Out produced{};
        if (in_fire) {
            produced = logic_(in_.bits);
            ++stats_.accepted;
        }
        if (out_fire)
            ++stats_.delivered;

        if (out_fire) {
            if (skid_valid_) {
                // Drain the skid register into the main register. The
                // registered ready guarantees no in_fire this cycle.
                main_ = skid_;
                skid_valid_ = false;
            } else if (in_fire) {
                main_ = produced;
            } else {
                main_valid_ = false;
            }
        } else if (in_fire) {
            if (main_valid_) {
                // Output stalled with a beat in flight: skid.
                skid_ = produced;
                skid_valid_ = true;
            } else {
                main_ = produced;
                main_valid_ = true;
            }
        }
    }

    unsigned
    occupancy() const override
    {
        return (main_valid_ ? 1u : 0u) + (skid_valid_ ? 1u : 0u);
    }

  private:
    Logic logic_;

    Decoupled<In> in_;
    Decoupled<Out> out_;
    Decoupled<Out> *out_port_ = &out_;

    Out main_{};
    bool main_valid_ = false;
    Out skid_{};
    bool skid_valid_ = false;
};

} // namespace rayflex::pipeline

#endif // RAYFLEX_PIPELINE_SKID_BUFFER_HH
