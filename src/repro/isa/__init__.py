"""RV64IM+FD instruction set: registers, encodings, assembler, programs."""
