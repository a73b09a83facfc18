"""ebitnet: simulate collective quantum operations on separated qubits and
account for the entanglement and classical-communication they cost or yield."""

__version__ = "0.1.0"
