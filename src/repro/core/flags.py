"""``dlb_drom_flags_t`` — option flags of the DROM calls.

The paper describes the flags argument as "a custom bitset provided by DLB
[that] adds some flexibility to the interface by allowing some options like:
whether the function call is synchronous or asynchronous, whether to steal the
CPUs from other processes, etc.".  This module reproduces that bitset.
"""

from __future__ import annotations

from enum import IntFlag


class DromFlags(IntFlag):
    """Flags accepted by the DROM administrator calls."""

    #: No options: asynchronous, non-stealing behaviour.
    NONE = 0

    #: Block until the target process has acknowledged the new mask (i.e. it
    #: has polled DROM and applied the change).  Without this flag the call
    #: returns ``DLB_NOTED`` immediately and the change is applied at the
    #: target's next malleability point.
    SYNC_QUERY = 1 << 0

    #: Allow taking CPUs that are currently owned by other registered
    #: processes, shrinking their masks accordingly.  This is what the SLURM
    #: integration uses when co-allocating a new job on a busy node.
    STEAL = 1 << 1

    #: When finalising a pre-initialised process, return the CPUs it was using
    #: to their original owners (if those owners are still registered).
    RETURN_STOLEN = 1 << 2

    #: Do not actually apply the change, only check that it would be legal.
    DRY_RUN = 1 << 3

    # The predicates test the raw bits: ``self & flag`` would build a new
    # flag object on every DROM call.

    def is_sync(self) -> bool:
        return self._value_ & DromFlags.SYNC_QUERY._value_ != 0

    def allows_steal(self) -> bool:
        return self._value_ & DromFlags.STEAL._value_ != 0

    def returns_stolen(self) -> bool:
        return self._value_ & DromFlags.RETURN_STOLEN._value_ != 0

    def is_dry_run(self) -> bool:
        return self._value_ & DromFlags.DRY_RUN._value_ != 0
