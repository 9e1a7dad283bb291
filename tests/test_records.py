"""The package's records are immutable tuples (``typing.NamedTuple``):
neither a field nor a new attribute can be assigned, as on the frozen
dataclasses they replaced.  ``RunConfig`` is a tuple too; a test that varies
a config takes ``cfg._replace(...)``.  ``Peak`` and ``LindbladModel`` are
plain mutable classes and are not listed."""

import numpy as np
import pytest

from ionspec2d import cli, dynamics, protocol, scenarios, spectrum


def _grid():
    return protocol.SignalGrid(values=np.ones((2, 2), dtype=complex), dt=1e-5)


def _propagator():
    model = dynamics.LindbladModel(hamiltonian=np.diag([0.0, 1e3]), dims=(2,))
    return dynamics.Propagator(matrix=dynamics.expm(dynamics.liouvillian(model) * 1e-5))


# record name: builder from the conftest fixture lookup
RECORDS = {
    "TrapConfig": lambda fixture: fixture("table_trap"),
    "NormalModes": lambda fixture: fixture("table_data").modes,
    "ModeData": lambda fixture: fixture("table_data"),
    "EffectiveParams": lambda fixture: fixture("table_params"),
    "KerrParams": lambda fixture: fixture("table_params").third,
    "ResonantCoupling": lambda fixture: scenarios.resonance_parameters(fixture("resonance_data")),
    "KerrModel": lambda fixture: scenarios.kerr_model_from_params(fixture("table_params"), (3, 2, 2), (1.0, 1.0, 1.0)),
    "Propagator": lambda fixture: _propagator(),
    "PulseSequence": lambda fixture: protocol.PulseSequence(),
    "SignalGrid": lambda fixture: _grid(),
    "Spectrum2D": lambda fixture: spectrum.fft2(_grid()),
    "RunConfig": lambda fixture: cli.build_config({"scenario": "kerr"}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_assignment(name, request):
    record = RECORDS[name](request.getfixturevalue)
    assert type(record).__name__ == name
    before = tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], before[0])
    with pytest.raises(AttributeError):
        record.note = "added"
    assert all(now is then for now, then in zip(record, before))
